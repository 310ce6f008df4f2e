"""The generator's random stream is part of its output: the same config and
seed must give the same draws, in the same order and count per person.
These digests were taken before the generator's hot loop was rewritten, so
a change that moves one draw fails here in seconds, not through the
several-minute effect-recovery and type-I studies."""
import hashlib
import os

import pytest

from conftest import simulated_pipeline
from rxdid.study_analysis import ANALYSIS_TABLE_COLUMNS
from rxdid.synthgen import SimConfig, generate

TEXT_COLUMNS = ("person_id", "provider_id", "late_anchor")


def _table_digest(config: SimConfig) -> str:
    table = simulated_pipeline(config).table
    h = hashlib.sha256()
    for name in ANALYSIS_TABLE_COLUMNS:
        h.update(name.encode())
        if name in TEXT_COLUMNS:
            # an object array's bytes are pointers, so hash the values as text
            h.update("\n".join(map(str, table[name].tolist())).encode())
        else:
            h.update(table[name].tobytes())
    return h.hexdigest()


def _criterion_4(seed):
    return SimConfig(seed=seed, n_providers=200, patients_per_provider_quarter=3.0,
                     effect_refill=0.7)


def _criterion_5(seed):
    return SimConfig(seed=seed, n_providers=200, patients_per_provider_quarter=2.0)


@pytest.mark.parametrize("config, digest", [
    (_criterion_4(0), "751b0296768988db9c0dbc9bf78c897af081052ed0b4ecdd2dca94fa78a355d0"),
    (_criterion_4(1), "c883bda7bca7c45b0b70e51090ec9ce6abc61d943d12a5724c1766b8f1c1cd1e"),
    (_criterion_5(10_000), "462422a8033b5f0aaa02289dd75ad21937fac830bb3dde661c8d03e94dbfaca3"),
    (_criterion_5(10_001), "ef41349112b437ec5ec5902e212b81c8b0509f3f22c57908fb2e547c8f74494b"),
], ids=["c4-seed0", "c4-seed1", "c5-seed10000", "c5-seed10001"])
def test_acceptance_replicate_tables_match_golden_digests(config, digest):
    assert _table_digest(config) == digest


# Branches the acceptance configs leave cold: a fractional patient count,
# float procedure weights, trends, frequent enrollment gaps and underage
# patients, more than ten comorbidity codes on one visit, and effects on
# all three outcomes.
BRANCHES_CONFIG = """\
seed = 4242
n_providers = 20
patients_per_provider_quarter = 2.5
trend_initial_mme_exposed = 0.05
trend_initial_mme_unexposed = -0.03
trend_refill_exposed = 0.2
trend_refill_unexposed = -0.1
trend_persistence_exposed = 0.15
trend_persistence_unexposed = 0.1
effect_initial_mme = 0.8
effect_refill = 0.6
effect_persistence = 1.5
enrollment_gap_rate = 0.3
underage_rate = 0.2
prior_opioid_rate = 0.1
comorbidity_prev = 0.5
proc_weight_knee_arthroscopy = 2.5
proc_weight_total_hip_replacement = 1.25
proc_weight_open_appendectomy = 0.75
proc_weight_breast_excision = 0.5
"""

BRANCHES_SHA256 = {
    "drug_catalog.csv": "2431070d27f20b4e3e99762e16055323aed6f164bd26c764793315735236ff0e",
    "enrollment.csv": "a81f1f57cbc3dd1876038837027f808c8d6ce9b45b62edc59c2b683374c98f65",
    "medical.csv": "e5fce1fb11d1386293dd92d1db9ae13de2e941643b980568022ce8f7c4856593",
    "persons.csv": "23c8b90401251723b520114e5dcfd3e708758dd4b497baf7bfb816f4bd572720",
    "pharmacy.csv": "382ddf97fa975e6ea4d0f15a62ef70dd1cd492e8010697e3985a3557e65d8ef9",
    "ground_truth.json": "4b0fe9c11c6fffbae7fad101c8001b72f9e49cc8d78ca5e6ea63382f7eab711c",
}


def test_less_used_branches_match_golden_digests(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(BRANCHES_CONFIG)
    out = str(tmp_path / "inputs")
    generate(SimConfig.from_file(str(cfg)), out)
    digests = {
        name: hashlib.sha256(open(os.path.join(out, name), "rb").read()).hexdigest()
        for name in BRANCHES_SHA256
    }
    assert digests == BRANCHES_SHA256
