"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured quantity at the stated tolerance.

Criteria 4 and 5 run hundreds of seeded simulations and dominate runtime;
they are marked ``slow``. Everything else completes in seconds.
"""
import json
import math
import os
import time

import numpy as np
import pytest
from scipy import stats

from conftest import simulated_pipeline
from rxdid.claims_core import StudyCalendar
from rxdid.cli import main as cli_main
from rxdid.glm_engine import BINOMIAL_LOGIT, GAMMA_LOG, fit_arrays, hc1_cov, prepare_design
from rxdid.prescriber_profile import ProviderClass, classify_providers
from rxdid.study_analysis import (
    did_design,
    render_report_from_estimates,
    run_did,
    run_pretrend,
)
from rxdid.synthgen import SimConfig

CAL = StudyCalendar()


def _ok(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


# 1. GLM closed-form oracle ---------------------------------------------------

def test_criterion_1_glm_closed_form():
    start = time.time()
    x = np.concatenate([np.zeros(100), np.ones(100)])
    y = np.concatenate([
        np.repeat([0.0, 1.0], [70, 30]), np.repeat([0.0, 1.0], [90, 10]),
    ])
    X = np.column_stack([np.ones(200), x])
    res = fit_arrays(prepare_design(X, ["intercept", "x"], np.arange(200)), y, BINOMIAL_LOGIT)
    b0, b1 = res.coef("intercept"), res.coef("x")
    exp0 = math.log(30 / 70)
    exp1 = math.log((10 / 90) / (30 / 70))
    assert abs(b0 - exp0) < 1e-6 and abs(b0 - (-0.84730)) < 1e-4
    assert abs(b1 - exp1) < 1e-6 and abs(b1 - (-1.34993)) < 1e-4

    yg = np.array([2.0, 4.0, 5.0, 6.0, 8.0])  # mean 5.0
    resg = fit_arrays(prepare_design(np.ones((5, 1)), ["intercept"], np.arange(5)), yg, GAMMA_LOG)
    assert abs(resg.coef("intercept") - math.log(5.0)) < 1e-8
    elapsed = time.time() - start
    assert elapsed < 1.0
    _ok("1 GLM closed-form oracle",
        f"logit {b0:.5f}/{b1:.5f}, gamma {resg.coef('intercept'):.5f}, "
        f"{elapsed:.2f}s")


# 2. Sandwich identity --------------------------------------------------------

def test_criterion_2_sandwich_hc1_identity():
    rng = np.random.default_rng(2)
    n = 200
    x = rng.normal(size=n)
    y = (rng.random(n) < 1 / (1 + np.exp(-(0.3 + 0.7 * x)))).astype(float)
    X = np.column_stack([np.ones(n), x])
    # singleton clusters: each row its own
    res = fit_arrays(prepare_design(X, ["intercept", "x"], np.arange(n)), y, BINOMIAL_LOGIT)
    diff = float(np.max(np.abs(res.robust_cov - hc1_cov(res))))
    assert diff < 1e-12
    _ok("2 sandwich identity", f"max |diff| = {diff:.2e} on 200-row toy")


# 3. DiD closed form ----------------------------------------------------------

def test_criterion_3_did_closed_form():
    cells = [(1, 0, 100, 20), (0, 0, 100, 10), (1, 1, 100, 10), (0, 1, 100, 10)]
    exposed, post, y, prov = [], [], [], []
    for i, (e, p, n, k) in enumerate(cells):
        for j in range(n):
            exposed.append(float(e))
            post.append(float(p))
            y.append(1.0 if j < k else 0.0)
            prov.append(f"dr{e}{j % 10}")
    table = {
        "exposed": np.array(exposed), "post": np.array(post),
        "any_refill_30d": np.array(y),
        "provider_id": np.array(prov, dtype=object),
    }
    est = run_did(table, "any_refill_30d", design=did_design(table, []))
    expected = math.log(1 / 2.25)
    assert abs(est.interaction - expected) < 1e-8
    assert abs(est.interaction - (-0.81093)) < 1e-5
    _ok("3 DiD closed form", f"interaction {est.interaction:.5f} vs ln(1/2.25)")


# 4. Effect recovery ----------------------------------------------------------

@pytest.mark.slow
def test_criterion_4_effect_recovery():
    start = time.time()
    target = math.log(0.7)
    covered = 0
    estimates = []
    for seed in range(200):
        cfg = SimConfig(
            seed=seed, n_providers=200, patients_per_provider_quarter=3.0,
            effect_refill=0.7,
        )
        table = simulated_pipeline(cfg).table
        est = run_did(table, "any_refill_30d")
        estimates.append(est.interaction)
        covered += est.ci_low <= target <= est.ci_high
    elapsed = time.time() - start
    coverage = covered / 200
    bias = float(np.mean(estimates)) - target
    assert 0.93 <= coverage <= 0.97, coverage
    assert abs(bias) < 0.02, bias
    assert elapsed < 300.0, elapsed
    _ok("4 effect recovery",
        f"coverage {coverage:.3f} in [0.93, 0.97], bias {bias:+.4f} < 0.02, "
        f"{elapsed:.0f}s < 300s")


# 5. Type-I control and pre-trend uniformity ----------------------------------

@pytest.mark.slow
def test_criterion_5_type_i_and_pretrend_uniformity():
    rejections = 0
    pvals = []
    for seed in range(400):
        cfg = SimConfig(
            seed=10_000 + seed, n_providers=200,
            patients_per_provider_quarter=2.0,
        )
        table = simulated_pipeline(cfg).table
        pvals.append(run_pretrend(table, "any_refill_30d", CAL).joint_p)
        if seed < 200:
            rejections += run_did(table, "any_refill_30d").significant
    rate = rejections / 200
    ks = stats.kstest(pvals, "uniform").statistic
    assert 0.025 <= rate <= 0.075, rate
    assert ks < 0.08, ks
    _ok("5 type-I control",
        f"DiD rejection {rate:.3f} in [0.025, 0.075] over 200 seeds, "
        f"pre-trend KS {ks:.3f} < 0.08 over 400 reps")


# 6. Cohort golden fixture ----------------------------------------------------

def test_criterion_6_cohort_golden_fixture():
    from test_cohort_builder import (
        EXPECTED_AUDIT, _cohort, assign_period, golden_fixture,
    )
    from rxdid.cohort_builder import ExclusionReason, Period
    from datetime import date

    rows, audit = _cohort(golden_fixture())
    included = {r.person_id for r in rows if not r.person_id.startswith("prof_")}
    assert included == {
        "inc_pre_e1", "inc_pre_e2", "inc_pre_u1", "inc_pre_u2",
        "inc_post_e1", "inc_post_e2", "inc_post_u1", "inc_post_u2",
    }
    for reason in ExclusionReason:
        assert audit[reason] == EXPECTED_AUDIT.get(reason, 0), reason
    assert assign_period(date(2014, 8, 21), CAL) is Period.PRE
    assert assign_period(date(2014, 8, 22), CAL) is Period.WASHOUT
    assert assign_period(date(2014, 10, 6), CAL) is Period.POST
    _ok("6 cohort golden fixture",
        "8 included, exclusion histogram exact, period boundaries correct")


# 7. Classification boundaries ------------------------------------------------

def test_criterion_7_classification_boundaries():
    from test_prescriber_profile import _events_for_provider

    for n, h, expected in (
        (20, 15, ProviderClass.PRESCRIBER),     # share exactly 0.75
        (8, 2, ProviderClass.NON_PRESCRIBER),   # share exactly 0.25
        (4, 4, ProviderClass.INSUFFICIENT),     # below min_cases
    ):
        events, store = _events_for_provider(n, h)
        assert classify_providers(events, store)["dr1"].provider_class is expected
    _ok("7 classification boundaries",
        "0.75 -> Prescriber, 0.25 -> NonPrescriber, 4 events -> Insufficient")


# 8. Determinism --------------------------------------------------------------

def _tree(out_dir):
    files, manifests = {}, {}
    for root, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out_dir)
            if name.startswith("manifest_"):
                m = json.load(open(path))
                for key in ("started", "finished", "argv"):
                    m.pop(key, None)
                manifests[rel] = m
            else:
                files[rel] = open(path, "rb").read()
    return files, manifests


def test_criterion_8_determinism(tmp_path):
    sim = tmp_path / "sim.cfg"
    sim.write_text("seed = 13\nn_providers = 60\npatients_per_provider_quarter = 1.5\n")
    runs = {}
    for name, threads in (("r1", "1"), ("r2", "1"), ("t8", "8")):
        out = str(tmp_path / name)
        rc = cli_main(["all", "--out", out, "--sim", str(sim),
                       "--threads", threads])
        assert rc == 0
        runs[name] = _tree(out)
    assert runs["r1"][0] == runs["r2"][0] and runs["r1"][1] == runs["r2"][1]
    assert runs["r1"][0] == runs["t8"][0] and runs["r1"][1] == runs["t8"][1]
    _ok("8 determinism",
        f"{len(runs['r1'][0])} files byte-identical across repeat runs and "
        "--threads 1 vs 8")


# 9. Report fixtures ----------------------------------------------------------

def test_criterion_9_report_fixtures():
    def year(ame, lo, hi, p):
        return {"coefficient": 0.0, "ci_low": 0.0, "ci_high": 0.0,
                "p_value": p, "ame": ame, "ame_ci_low": lo, "ame_ci_high": hi}

    estimates = {
        "run_id": "fixture",
        "pretrend": {
            "initial_mme_7d": {
                "joint_p": 0.005,
                "year3": year(-10.9, -19.6, -2.2, 0.01),
                "year2": year(-13.9, -22.7, -5.1, 0.02),
            },
        },
    }
    lines = render_report_from_estimates(estimates)["pretrend"]["initial_mme_7d"]["summary"]
    assert lines[0] == "joint interaction test: P=0.005"
    assert lines[1].startswith(
        "exposure x year3 (vs year 1): -10.9 MME (95% CI -19.6, -2.2)"
    )
    assert lines[2].startswith(
        "exposure x year2 (vs year 1): -13.9 MME (95% CI -22.7, -5.1)"
    )
    _ok("9 report fixtures",
        "P=0.005, -10.9 MME (95% CI -19.6, -2.2), -13.9 MME (95% CI -22.7, -5.1) "
        "rendered verbatim")
