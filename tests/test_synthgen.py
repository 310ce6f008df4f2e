"""Synthetic-claims generator: determinism, calibration, truth checks."""
import dataclasses
import itertools
import math
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import simulated_pipeline
from rxdid.claims_core import MalformedRow, StudyCalendar
from rxdid.prescriber_profile import ProviderClass
from rxdid.synthgen import (
    DEFAULT_PROCEDURE_WEIGHTS,
    GroundTruth,
    InvalidConfig,
    RunMismatch,
    SimConfig,
    generate,
    load_ground_truth,
    randbelow,
    truth_check,
    weighted_index,
)

CAL = StudyCalendar()
SMALL = SimConfig(seed=11, n_providers=30, patients_per_provider_quarter=1.0)


def _dir_bytes(d):
    return {
        name: open(os.path.join(d, name), "rb").read()
        for name in sorted(os.listdir(d))
    }


def test_same_seed_byte_identical(tmp_path):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    generate(SMALL, d1)
    generate(SMALL, d2)
    b1, b2 = _dir_bytes(d1), _dir_bytes(d2)
    assert set(b1) == set(b2)
    assert all(b1[k] == b2[k] for k in b1)
    assert "ground_truth.json" in b1


def test_different_seed_differs(tmp_path):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    generate(SMALL, d1)
    generate(dataclasses.replace(SMALL, seed=12), d2)
    assert _dir_bytes(d1)["pharmacy.csv"] != _dir_bytes(d2)["pharmacy.csv"]


def test_ground_truth_round_trip(tmp_path):
    d = str(tmp_path / "a")
    _, truth = generate(SMALL, d)
    loaded = load_ground_truth(os.path.join(d, "ground_truth.json"))
    assert loaded == truth
    assert truth.run_id == SMALL.run_id()
    assert len(truth.provider_strata) == 30
    assert truth.n_episodes > 0


@pytest.mark.parametrize("overrides", [
    {"refill_prob": 1.5},
    {"effect_refill": 0.0},
    {"effect_initial_mme": -2.0},
    {"n_providers": 0},
    {"share_concentration": 0.0},
    {"initial_mme_mean": -1.0},
    {"initial_mme_mean": float("inf")},
    {"effect_refill": float("nan")},
    {"procedure_weights": dict.fromkeys(DEFAULT_PROCEDURE_WEIGHTS, 0.0)},
    {"procedure_weights": {"knee_arthroscopy": 2.0, "breast_excision": -1.0}},
    {"refill_prob": 0.0},
    {"persistence_prob": 1.0},
    {"share_mean_high": 1.0},
    {"share_mean_low": 0.0},
    {"high_pref_fraction": 1.5},
    {"patients_per_provider_quarter": -1},
])
def test_invalid_config(overrides):
    # a config validates itself when it is built
    with pytest.raises(InvalidConfig):
        dataclasses.replace(SimConfig(), **overrides)


def test_config_file_round_trip(tmp_path):
    p = tmp_path / "sim.cfg"
    p.write_text(
        "seed = 42          # comment\n"
        "n_providers = 17\n"
        "refill_prob = 0.3\n"
        "effect_refill = 0.7\n"
        "proc_weight_knee_arthroscopy = 5.0\n"
        "proc_weight_breast_excision = 1.0\n"
    )
    cfg = SimConfig.from_file(str(p))
    assert cfg.seed == 42
    assert cfg.n_providers == 17
    assert cfg.refill_prob == 0.3
    assert cfg.effect_refill == 0.7
    assert cfg.procedure_weights == {"knee_arthroscopy": 5.0, "breast_excision": 1.0}


def test_config_file_rejects_unknown_key(tmp_path):
    p = tmp_path / "sim.cfg"
    p.write_text("n_provider = 5\n")
    with pytest.raises(InvalidConfig):
        SimConfig.from_file(str(p))
    p.write_text("proc_weight_face_lift = 1.0\n")
    with pytest.raises(InvalidConfig):
        SimConfig.from_file(str(p))


@pytest.mark.parametrize("text, message", [
    ("seed = 1\nn_providers = 5\nseed = 2\n", ":3: config key 'seed' given twice"),
    ("proc_weight_knee_arthroscopy = 1\nproc_weight_knee_arthroscopy = 2\n",
     ":2: config key 'proc_weight_knee_arthroscopy' given twice"),
    ("seed = 3\nn_provider = 5\n", ":2: unknown config key 'n_provider'"),
    ("proc_weight_face_lift = 1.0\n", ":1: unknown config key 'proc_weight_face_lift'"),
    ("knee_arthroscopy = 1.0\n", ":1: unknown config key 'knee_arthroscopy'"),
    ("procedure_weights = 1\n", ":1: unknown config key 'procedure_weights'"),
    ("seed = 3\n\nn_providers = 0.5\n", ":3: n_providers: invalid literal"),
    ("proc_weight_breast_excision = many\n", ":1: proc_weight_breast_excision: could not"),
    ("seed\n", ":1: expected key = value, got 'seed'"),
    ("refill_prob = 0  # never\n", ": refill_prob=0.0 must be in (0, 1)"),
])
def test_config_file_error_names_the_file_and_line(tmp_path, text, message):
    p = tmp_path / "sim.cfg"
    p.write_text(text)
    with pytest.raises((InvalidConfig, MalformedRow)) as raised:
        SimConfig.from_file(str(p))
    assert str(raised.value).startswith(f"{p}{message}")


def test_run_id_depends_on_config_not_identity():
    assert SimConfig(seed=5).run_id() == SimConfig(seed=5).run_id()
    assert SimConfig(seed=5).run_id() != SimConfig(seed=6).run_id()
    assert SimConfig(seed=5).run_id() != SimConfig(seed=5, refill_prob=0.3).run_id()


def test_marginal_calibration_null_config():
    cfg = SimConfig(seed=3, n_providers=80, patients_per_provider_quarter=3.0)
    table = simulated_pipeline(cfg).table
    n = len(table["any_refill_30d"])
    assert n > 2000
    for name, p in (("any_refill_30d", cfg.refill_prob),
                    ("persistent_use_90_180", cfg.persistence_prob)):
        rate = float(table[name].mean())
        se = math.sqrt(p * (1 - p) / n)
        assert abs(rate - p) < 3 * se, (name, rate, p)
    mme = table["initial_mme_7d"]
    se = float(mme.std(ddof=1)) / math.sqrt(n)
    # rounding to integer pill counts biases the mean by < 1 MME
    assert abs(float(mme.mean()) - cfg.initial_mme_mean) < 3 * se + 1.0


def test_classifier_recovers_provider_strata():
    cfg = SimConfig(seed=9, n_providers=60, patients_per_provider_quarter=2.0)
    run = simulated_pipeline(cfg)
    profiles, truth = run.profiles, run.truth
    correct = total = 0
    for pid, stratum in truth.provider_strata.items():
        cls = profiles[pid].provider_class if pid in profiles else None
        if cls in (ProviderClass.PRESCRIBER, ProviderClass.NON_PRESCRIBER):
            total += 1
            expected = (
                ProviderClass.PRESCRIBER if stratum == "high"
                else ProviderClass.NON_PRESCRIBER
            )
            correct += cls is expected
    assert total >= 50
    assert correct / total >= 0.95


# -- truth_check -------------------------------------------------------------

def _truth(effects):
    return GroundTruth("rid", 0, effects, {}, 100)


def _did_entry(est, lo, hi, significant=False):
    return {"interaction": est, "ci_low": lo, "ci_high": hi,
            "significant": significant}


def test_truth_check_run_mismatch():
    with pytest.raises(RunMismatch):
        truth_check(_truth({}), {"run_id": "other"})


def test_truth_check_pass_and_fail():
    truth = _truth({"any_refill_30d": 0.7, "initial_mme_7d": 0.7})
    report = {"run_id": "rid", "did": {
        "any_refill_30d": _did_entry(-0.36, -0.60, -0.10),
        "initial_mme_7d": _did_entry(0.10, 0.05, 0.20),
    }}
    v = truth_check(truth, report)
    assert v["any_refill_30d"]["status"] == "pass"  # CI covers ln 0.7
    assert v["initial_mme_7d"]["status"] == "fail"
    assert v["initial_mme_7d"]["injected_log_effect"] == pytest.approx(math.log(0.7))


def test_truth_check_null_records_type_i():
    truth = _truth({"any_refill_30d": 1.0})
    report = {"run_id": "rid", "did": {
        "any_refill_30d": _did_entry(0.30, 0.10, 0.50, significant=True),
    }}
    v = truth_check(truth, report)
    assert v["any_refill_30d"]["status"] == "null"
    assert v["any_refill_30d"]["type_i_event"] is True
    assert v["any_refill_30d"]["ci_covers_zero"] is False


def test_truth_check_missing_outcome():
    v = truth_check(_truth({"any_refill_30d": 0.7}), {"run_id": "rid", "did": {}})
    assert v["any_refill_30d"]["status"] == "missing"


def test_generated_store_equals_parsed_written_inputs(tmp_path):
    # generate() builds its store from records; parse_inputs() builds one
    # from the files it wrote. Both go through store_from_records.
    from rxdid.claims_core import parse_inputs

    config = SimConfig(seed=5, n_providers=50, patients_per_provider_quarter=1.5)
    store, _ = generate(config, out_dir=str(tmp_path), calendar=CAL)
    parsed = parse_inputs(str(tmp_path), CAL)
    assert parsed.rejected == []
    assert parsed.enrollment == store.enrollment
    assert parsed.pharmacy == store.pharmacy
    assert parsed.medical == store.medical
    assert parsed.demographics == store.demographics
    assert parsed.catalog == store.catalog
    assert parsed.parsed_counts == store.parsed_counts


# -- the two draws copied from random.py ---------------------------------------
# generate() draws integers and procedures through randbelow and
# weighted_index, not through Random.randrange/randint/choices. Each must
# give the library's value and leave the generator in the library's state,
# on the interpreter that runs the tests; a Python whose random.py draws
# otherwise fails here by name.

_SEEDS = st.integers(0, 2**64 - 1)


@settings(max_examples=300, deadline=None)
@given(_SEEDS, st.lists(st.integers(1, 5000), min_size=1, max_size=20), st.integers(-200, 200))
def test_randbelow_matches_randrange_and_randint(seed, sizes, low):
    ours, library = random.Random(seed), random.Random(seed)
    for n in sizes:
        assert randbelow(ours.getrandbits, n) == library.randrange(n)
        assert low + randbelow(ours.getrandbits, n) == library.randint(low, low + n - 1)
        assert low + randbelow(ours.getrandbits, n) == library.randrange(low, low + n)
    assert ours.getstate() == library.getstate()


def test_randbelow_refuses_an_empty_range():
    for n in (0, -1):
        with pytest.raises(ValueError):
            randbelow(random.Random(0).getrandbits, n)


_WEIGHTS = st.one_of(
    st.lists(st.integers(0, 50), min_size=1, max_size=12),
    st.lists(st.floats(0.0, 50.0, allow_nan=False), min_size=1, max_size=12),
).filter(lambda w: sum(w) > 0)


@settings(max_examples=300, deadline=None)
@given(_SEEDS, _WEIGHTS, st.integers(1, 20))
def test_weighted_index_matches_choices(seed, weights, draws):
    population = [f"item{i}" for i in range(len(weights))]
    cum_weights = list(itertools.accumulate(weights))
    ours, library = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        assert (population[weighted_index(ours.random, cum_weights)]
                == library.choices(population, cum_weights=cum_weights)[0])
    assert ours.getstate() == library.getstate()

