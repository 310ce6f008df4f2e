"""CLI exit codes, run-directory outputs, and byte-level reproducibility."""
import functools
import json
import os

import numpy as np
import pytest

import rxdid.study_analysis as sa
from rxdid.cli import main
from rxdid.glm_engine import fit_arrays
from rxdid.claims_core import StudyCalendar
from rxdid.study_analysis import ANALYSIS_TABLE_COLUMNS, write_analysis_table

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
    table["_calendar"] = cal
    return table


def test_pretrend_post_only_is_analysis_error(tmp_path, capsys):
    out = str(tmp_path / "r")
    os.makedirs(os.path.join(out, "inputs"))
    write_analysis_table(os.path.join(out, "analysis_table.csv"), _post_only_table())
    assert main(["pretrend", "--out", out]) == 2
    assert "analysis error" in capsys.readouterr().err


def test_did_nonconvergence_is_analysis_error(tmp_path, sim_file, capsys, monkeypatch):
    out = str(tmp_path / "r")
    for step in ["simulate", "classify", "cohort"]:
        assert main([step, "--out", out, "--sim", sim_file]) == 0
    capsys.readouterr()
    monkeypatch.setattr(sa, "fit_arrays", functools.partial(fit_arrays, max_iterations=1))
    assert main(["did", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("analysis error: ") and "did not converge" in err
    assert len(err.splitlines()) == 1
    assert not os.path.exists(os.path.join(out, "did.json"))


def test_dump_fit_written(tmp_path, sim_file):
    out = str(tmp_path / "r")
    assert main(["simulate", "--out", out, "--sim", sim_file]) == 0
    assert main(["classify", "--out", out]) == 0
    assert main(["cohort", "--out", out]) == 0
    assert main(["did", "--out", out, "--dump-fit"]) == 0
    dump = open(os.path.join(out, "fit_dump.txt")).read()
    assert "== any_refill_30d (binomial_logit) ==" in dump
    assert "converged=True" in dump
