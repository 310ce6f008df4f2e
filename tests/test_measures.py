"""Outcome windows, MME arithmetic, and covariate construction."""
from datetime import date, timedelta

import pytest

from rxdid.claims_core import (
    DrugCatalogEntry,
    MedicalClaim,
    OpioidIngredient,
    PersonDemographics,
    PharmacyClaim,
    ProviderType,
    Setting,
    Sex,
    store_from_records,
)
from rxdid.cohort_builder import CohortRow, Exposure, LosCategory, Period
from rxdid.measures import (
    COVARIATE_COLUMNS,
    ComorbidityMap,
    MissingCatalogEntry,
    NotAnalgesicOpioid,
    OutcomeVector,
    compute_covariates,
    compute_outcomes,
    mme_of_fill,
    read_antidepressants_csv,
    write_antidepressants_csv,
    write_comorbidity_map_csv,
)
from rxdid.prescriber_profile import IndexEvent
from rxdid.study_analysis import OUTCOMES

CATALOG = [
    DrugCatalogEntry("HYD5", OpioidIngredient.HYDROCODONE, True, 5.0, 1.0),
    DrugCatalogEntry("OXY5", OpioidIngredient.OXYCODONE, True, 5.0, 1.5),
    DrugCatalogEntry("TRA50", OpioidIngredient.TRAMADOL, True, 50.0, 0.1),
    DrugCatalogEntry("FENTP", OpioidIngredient.FENTANYL, False, 0.0, 0.0),
    DrugCatalogEntry("AD001", None, False, 0.0, 0.0),
]
INDEX_DAY = date(2013, 5, 10)


def _entry(code):
    return next(e for e in CATALOG if e.drug_code == code)


@pytest.mark.parametrize("code,qty,expected", [
    ("HYD5", 40, 200.0),      # 5 mg x 40 x 1.0
    ("OXY5", 60, 450.0),      # 5 mg x 60 x 1.5
    ("TRA50", 30, 150.0),     # 50 mg x 30 x 0.1
])
def test_mme_examples(code, qty, expected):
    fill = PharmacyClaim("p1", INDEX_DAY, code, float(qty))
    assert mme_of_fill(fill, _entry(code)) == expected


def test_mme_rejects_non_analgesic():
    fill = PharmacyClaim("p1", INDEX_DAY, "FENTP", 10.0)
    with pytest.raises(NotAnalgesicOpioid):
        mme_of_fill(fill, _entry("FENTP"))


def _row_and_store(fills, medical_extra=(), birth_year=1960):
    claim = MedicalClaim(
        "c1", "p1", "dr1", ProviderType.INDIVIDUAL, "47562",
        INDEX_DAY, None, None, Setting.AMBULATORY, (),
    )
    pharmacy = [
        PharmacyClaim("p1", INDEX_DAY + timedelta(days=d), code, qty)
        for d, code, qty in fills
    ]
    store = store_from_records(
        [], pharmacy, [claim] + list(medical_extra),
        [PersonDemographics("p1", birth_year, Sex.FEMALE)], CATALOG,
    )
    first = [f for f in pharmacy
             if 0 <= (f.fill_date - INDEX_DAY).days <= 7]
    first_day = min(f.fill_date for f in first)
    event = IndexEvent(
        "laparoscopic_cholecystectomy", claim, INDEX_DAY, INDEX_DAY,
        tuple(f for f in first if f.fill_date == first_day),
    )
    row = CohortRow(
        "p1", Exposure.EXPOSED, Period.PRE, event,
        INDEX_DAY.year - birth_year, Sex.FEMALE, LosCategory.ZERO,
    )
    return row, store


def test_outcome_vector_fields_are_the_analysis_outcomes_in_order():
    # build_analysis_table extends its columns with an OutcomeVector as it is
    assert OutcomeVector._fields == tuple(OUTCOMES)


def test_initial_mme_sums_first_day_only():
    # two fills on the first fill day count; the day-5 fill does not
    row, store = _row_and_store([
        (1, "HYD5", 40.0), (1, "OXY5", 20.0), (5, "HYD5", 10.0),
    ])
    out = compute_outcomes(row, store)
    assert out.initial_mme_7d == 200.0 + 150.0
    assert out.any_refill_30d  # the day-5 fill is a refill


def test_refill_window_boundaries():
    row, store = _row_and_store([(1, "HYD5", 40.0), (30, "HYD5", 10.0)])
    assert compute_outcomes(row, store).any_refill_30d

    row, store = _row_and_store([(1, "HYD5", 40.0), (31, "HYD5", 10.0)])
    out = compute_outcomes(row, store)
    assert not out.any_refill_30d
    assert out.total_mme_30d == 200.0  # day-31 fill outside the 30-day total


def test_same_day_repeat_is_not_a_refill():
    row, store = _row_and_store([(1, "HYD5", 40.0), (1, "HYD5", 10.0)])
    out = compute_outcomes(row, store)
    assert not out.any_refill_30d
    assert out.initial_mme_7d == 250.0


def test_total_mme_30d_includes_initial():
    row, store = _row_and_store([(0, "HYD5", 40.0), (20, "TRA50", 30.0)])
    out = compute_outcomes(row, store)
    assert out.total_mme_30d == 200.0 + 150.0


@pytest.mark.parametrize("day,expected", [(89, False), (90, True), (180, True), (181, False)])
def test_persistence_window_boundaries(day, expected):
    row, store = _row_and_store([(1, "HYD5", 40.0), (day, "HYD5", 10.0)])
    assert compute_outcomes(row, store).persistent_use_90_180 is expected


def test_non_analgesic_fill_ignored_in_outcomes():
    row, store = _row_and_store([(1, "HYD5", 40.0), (10, "FENTP", 5.0)])
    out = compute_outcomes(row, store)
    assert not out.any_refill_30d
    assert out.total_mme_30d == 200.0


def test_missing_catalog_entry_raises():
    row, store = _row_and_store([(1, "HYD5", 40.0)])
    store.pharmacy["p1"].append(
        PharmacyClaim("p1", INDEX_DAY + timedelta(days=3), "ZZZ", 1.0)
    )
    with pytest.raises(MissingCatalogEntry):
        compute_outcomes(row, store)


# -- comorbidity map ---------------------------------------------------------

def test_map_has_twenty_conditions():
    assert len(ComorbidityMap.default().conditions) == 20


@pytest.mark.parametrize("dx,condition", [
    ("42822", "congestive_heart_failure"),   # 428 prefix
    ("4011", "hypertension_uncomplicated"),  # 401 prefix
    ("40390", "hypertension_complicated"),   # 403 beats nothing else
    ("25040", "diabetes_complicated"),
    ("3110", "depression"),
    ("V4201", "renal_failure"),              # transplant V code
    ("1629", "solid_tumor_without_metastasis"),
])
def test_prefix_matching(dx, condition):
    assert condition in ComorbidityMap.default().conditions_for(dx)


def test_prefix_no_match():
    cmap = ComorbidityMap.default()
    assert cmap.conditions_for("82021") == frozenset()
    assert cmap.conditions_for("") == frozenset()


def test_renal_vs_hypertension_codes_disjoint():
    # 40391 is renal failure, 40390 is complicated hypertension only
    cmap = ComorbidityMap.default()
    assert "renal_failure" in cmap.conditions_for("40391")
    assert "renal_failure" not in cmap.conditions_for("40390")


def test_map_csv_round_trip(tmp_path):
    path = str(tmp_path / "cmap.csv")
    write_comorbidity_map_csv(path, ComorbidityMap.default())
    loaded = ComorbidityMap.from_file(path)
    assert loaded.conditions == ComorbidityMap.default().conditions


def test_memoized_conditions_equal_the_prefix_walk(tmp_path):
    # Short prefixes that overlap across conditions, so one code matches several.
    conditions = dict(ComorbidityMap.default().conditions)
    conditions["congestive_heart_failure"] += ("4",)
    conditions["depression"] += ("40", "V42")
    conditions["obesity"] += ("4011",)
    path = str(tmp_path / "cmap.csv")
    write_comorbidity_map_csv(path, ComorbidityMap(conditions))
    cmap = ComorbidityMap.from_file(path)
    prefixes = {p for ps in conditions.values() for p in ps}
    codes = sorted({"", "9", "82021"} | prefixes | {p + "9" for p in prefixes}
                   | {p[:-1] for p in prefixes})

    def walk(dx):
        return frozenset(c for c, ps in cmap.conditions.items()
                         if any(dx.startswith(p) for p in ps))

    first = [cmap.conditions_for(dx) for dx in codes]
    again = [cmap.conditions_for(dx) for dx in reversed(codes)][::-1]
    assert first == again == [walk(dx) for dx in codes]
    assert {"congestive_heart_failure", "depression", "obesity",
            "hypertension_uncomplicated"} <= cmap.conditions_for("40119")


def test_antidepressant_csv_round_trip(tmp_path):
    path = str(tmp_path / "ad.csv")
    write_antidepressants_csv(path, {"AD001", "AD777"})
    assert read_antidepressants_csv(path) == frozenset({"AD001", "AD777"})


# -- covariates --------------------------------------------------------------

def test_covariate_column_count():
    # 5 demographics/setting + 9 procedure indicators + 20 comorbidities + 1
    assert len(COVARIATE_COLUMNS) == 35


def _visit(claim_id, day, dx):
    return MedicalClaim(
        claim_id, "p1", "dr9", ProviderType.INDIVIDUAL, "99213",
        day, None, None, Setting.AMBULATORY, tuple(dx),
    )


def test_covariates_basic_vector():
    row, store = _row_and_store(
        [(1, "HYD5", 40.0)],
        medical_extra=[_visit("c2", INDEX_DAY - timedelta(days=60), ["42822"])],
    )
    vector = compute_covariates(row, store, ComorbidityMap.default())
    assert len(vector) == len(COVARIATE_COLUMNS)
    values = dict(zip(COVARIATE_COLUMNS, vector))
    assert values["age"] == 53.0
    assert values["sex_female"] == 1.0
    assert values["provider_group_practice"] == 0.0
    assert values["los_1_2"] == 0.0 and values["los_3plus"] == 0.0
    assert values["congestive_heart_failure"] == 1.0
    assert values["depression"] == 0.0
    assert all(values[f"proc_{n}"] == 0.0 for n in
               [c[5:] for c in COVARIATE_COLUMNS if c.startswith("proc_")])
    assert set(values) == set(COVARIATE_COLUMNS)


@pytest.mark.parametrize("offset,expected", [(-181, 0.0), (-180, 1.0), (-1, 1.0), (0, 0.0)])
def test_comorbidity_lookback_boundaries(offset, expected):
    row, store = _row_and_store(
        [(1, "HYD5", 40.0)],
        medical_extra=[_visit("c2", INDEX_DAY + timedelta(days=offset), ["42822"])],
    )
    values = dict(zip(COVARIATE_COLUMNS, compute_covariates(row, store, ComorbidityMap.default())))
    assert values["congestive_heart_failure"] == expected


@pytest.mark.parametrize("offset,expected", [(-91, 0.0), (-90, 1.0), (-1, 1.0), (0, 0.0)])
def test_antidepressant_lookback_boundaries(offset, expected):
    row, store = _row_and_store([(1, "HYD5", 40.0)])
    store.pharmacy["p1"].append(
        PharmacyClaim("p1", INDEX_DAY + timedelta(days=offset), "AD001", 30.0)
    )
    values = dict(zip(COVARIATE_COLUMNS, compute_covariates(
        row, store, ComorbidityMap.default(), frozenset({"AD001"})
    )))
    assert values["antidepressant_90d"] == expected
