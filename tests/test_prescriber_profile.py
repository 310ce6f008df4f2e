from datetime import date
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rxdid.claims_core import (
    DrugCatalogEntry,
    MedicalClaim,
    MissingCatalogEntry,
    OpioidIngredient,
    PersonDemographics,
    PharmacyClaim,
    ProviderType,
    Setting,
    Sex,
    store_from_records,
    write_csv,
)
from rxdid.prescriber_profile import (
    DEFAULT_PROCEDURES,
    PROCEDURE_COLUMNS,
    AmbiguousProcedureCode,
    InvalidThresholds,
    EmptyProfileSet,
    ProcedureCodeSet,
    ProviderClass,
    UnknownProcedure,
    classify_providers,
    find_index_events,
    profile_summary,
)

CATALOG = [
    DrugCatalogEntry("HYD5", OpioidIngredient.HYDROCODONE, True, 5.0, 1.0),
    DrugCatalogEntry("OXY5", OpioidIngredient.OXYCODONE, True, 5.0, 1.5),
    DrugCatalogEntry("FENTP", OpioidIngredient.FENTANYL, False, 0.0, 0.0),
]


def _store(medical, pharmacy):
    persons = [PersonDemographics(pid, 1960, Sex.MALE)
               for pid in {c.person_id for c in medical}]
    return store_from_records([], pharmacy, medical, persons, CATALOG)


def _med(claim_id, person, cpt, service, provider="dr1", dx=()):
    return MedicalClaim(claim_id, person, provider, ProviderType.INDIVIDUAL,
                        cpt, service, None, None, Setting.AMBULATORY, tuple(dx))


def _fill(person, day, code="HYD5", qty=30.0):
    return PharmacyClaim(person, day, code, qty)


WINDOW = (date(2011, 8, 22), date(2014, 8, 21))


def test_event_for_cholecystectomy_with_fill():
    store = _store(
        [_med("c1", "p1", "47562", date(2013, 2, 1))],
        [_fill("p1", date(2013, 2, 3))],
    )
    events = find_index_events(store, ProcedureCodeSet(), *WINDOW)
    assert len(events) == 1
    assert events[0].procedure_name == "laparoscopic_cholecystectomy"


def test_hip_replacement_with_hip_fracture_dx_excluded():
    store = _store(
        [_med("c1", "p1", "27130", date(2013, 2, 1), dx=["82021"])],
        [_fill("p1", date(2013, 2, 2))],
    )
    assert find_index_events(store, ProcedureCodeSet(), *WINDOW) == []


def test_non_oral_fill_does_not_qualify():
    store = _store(
        [_med("c1", "p1", "47562", date(2013, 2, 1))],
        [_fill("p1", date(2013, 2, 3), code="FENTP")],
    )
    assert find_index_events(store, ProcedureCodeSet(), *WINDOW) == []


def test_seven_day_window_boundaries():
    codes = ProcedureCodeSet()
    for offset, expected in ((0, 1), (7, 1), (8, 0)):
        from datetime import timedelta
        store = _store(
            [_med("c1", "p1", "47562", date(2013, 2, 1))],
            [_fill("p1", date(2013, 2, 1) + timedelta(days=offset))],
        )
        assert len(find_index_events(store, codes, *WINDOW)) == expected


@pytest.mark.parametrize("reverse", [False, True])
def test_duplicate_billing_collapses_to_lower_claim_id(reverse):
    # c7 is stored first (earlier service date); both end on 2013-02-03 at dr1
    medical = [
        MedicalClaim("c7", "p1", "dr1", ProviderType.INDIVIDUAL, "47562",
                     date(2013, 2, 1), date(2013, 2, 1), date(2013, 2, 3),
                     Setting.INPATIENT, ()),
        _med("c3", "p1", "49505", date(2013, 2, 3)),
    ]
    store = _store(medical[::-1] if reverse else medical, [_fill("p1", date(2013, 2, 4))])
    events = find_index_events(store, ProcedureCodeSet(), *WINDOW)
    assert [e.claim.claim_id for e in events] == ["c3"]
    assert events[0].procedure_name == "inguinal_hernia_repair"


def _events_for_provider(n_total, n_hydro, provider="dr1"):
    medical, pharmacy = [], []
    for i in range(n_total):
        person = f"p{i}"
        day = date(2013, 1, 1)
        medical.append(_med(f"c{i}", person, "47562", day, provider=provider))
        code = "HYD5" if i < n_hydro else "OXY5"
        pharmacy.append(_fill(person, date(2013, 1, 2), code=code))
    store = _store(medical, pharmacy)
    events = find_index_events(store, ProcedureCodeSet(), *WINDOW)
    assert len(events) == n_total
    return events, store


@pytest.mark.parametrize("n,h,expected", [
    (4, 4, ProviderClass.INSUFFICIENT),
    (20, 15, ProviderClass.PRESCRIBER),       # exactly 0.75
    (8, 2, ProviderClass.NON_PRESCRIBER),     # exactly 0.25
    (10, 5, ProviderClass.INDETERMINATE),
])
def test_classification_boundaries(n, h, expected):
    events, store = _events_for_provider(n, h)
    profiles = classify_providers(events, store)
    assert profiles["dr1"].provider_class is expected
    assert profiles["dr1"].hydrocodone_share == Fraction(h, n)


def test_thirds_share_classifies_exactly():
    # 1/3 is not float-representable; rational comparison keeps it above 0.25
    events, store = _events_for_provider(6, 2)
    assert classify_providers(events, store)["dr1"].provider_class is ProviderClass.INDETERMINATE


def test_invalid_thresholds():
    events, store = _events_for_provider(5, 5)
    with pytest.raises(InvalidThresholds):
        classify_providers(events, store, low=0.8, high=0.3)


def test_same_day_tie_any_hydrocodone_counts():
    store = _store(
        [_med("c1", "p1", "47562", date(2013, 2, 1))],
        [_fill("p1", date(2013, 2, 3), code="OXY5"),
         _fill("p1", date(2013, 2, 3), code="HYD5")],
    )
    events = find_index_events(store, ProcedureCodeSet(), *WINDOW)
    profiles = classify_providers(events, store, min_cases=1)
    assert profiles["dr1"].n_hydrocodone == 1


def test_earliest_fill_date_decides():
    # oxycodone on day 1 precedes hydrocodone on day 2: not a hydrocodone event
    store = _store(
        [_med("c1", "p1", "47562", date(2013, 2, 1))],
        [_fill("p1", date(2013, 2, 2), code="OXY5"),
         _fill("p1", date(2013, 2, 3), code="HYD5")],
    )
    events = find_index_events(store, ProcedureCodeSet(), *WINDOW)
    profiles = classify_providers(events, store, min_cases=1)
    assert profiles["dr1"].n_hydrocodone == 0


@given(st.integers(5, 40), st.integers(0, 40))
def test_partition_property(n, h):
    h = min(h, n)
    events, store = _events_for_provider(n, h)
    cls = classify_providers(events, store)["dr1"].provider_class
    share = Fraction(h, n)
    if share >= Fraction(3, 4):
        assert cls is ProviderClass.PRESCRIBER
    elif share <= Fraction(1, 4):
        assert cls is ProviderClass.NON_PRESCRIBER
    else:
        assert cls is ProviderClass.INDETERMINATE


@given(st.integers(5, 30), st.integers(0, 30))
def test_monotonicity(n, h):
    h = min(h, n)
    _rank = {
        ProviderClass.NON_PRESCRIBER: 0,
        ProviderClass.INDETERMINATE: 1,
        ProviderClass.PRESCRIBER: 2,
    }

    def cls_of(n_, h_):
        events, store = _events_for_provider(n_, h_)
        return classify_providers(events, store)["dr1"].provider_class

    base = cls_of(n, h)
    with_hydro = cls_of(n + 1, h + 1)
    assert _rank[with_hydro] >= _rank[base]
    without_hydro = cls_of(n + 1, h)
    assert _rank[without_hydro] <= _rank[base]


def test_profile_summary_median():
    events = []
    store = None
    # three providers with shares 0.0, 0.5, 1.0 over 6 events each
    medical, pharmacy = [], []
    shares = {"dr0": 0, "dr1": 3, "dr2": 6}
    i = 0
    for prov, n_h in shares.items():
        for k in range(6):
            person = f"q{i}"
            medical.append(_med(f"m{i}", person, "47562", date(2013, 1, 1), provider=prov))
            pharmacy.append(_fill(person, date(2013, 1, 2),
                                  code="HYD5" if k < n_h else "OXY5"))
            i += 1
    store = _store(medical, pharmacy)
    events = find_index_events(store, ProcedureCodeSet(), *WINDOW)
    summary = profile_summary(classify_providers(events, store))
    assert summary["median_share"] == 0.5
    assert summary["n_providers"] == 3
    assert summary["n_prescribers"] == 1
    assert summary["n_nonprescribers"] == 1


def test_profile_summary_lower_interpolation():
    # shares 0.2, 0.4, 0.6, 0.8 under the lower-interpolation rule:
    # median = 0.4 (index floor(1.5)), q1 = 0.2, q3 = 0.6
    medical, pharmacy = [], []
    i = 0
    for prov, n_h in (("dr0", 1), ("dr1", 2), ("dr2", 3), ("dr3", 4)):
        for k in range(5):
            person = f"q{i}"
            medical.append(_med(f"m{i}", person, "47562", date(2013, 1, 1), provider=prov))
            pharmacy.append(_fill(person, date(2013, 1, 2),
                                  code="HYD5" if k < n_h else "OXY5"))
            i += 1
    store = _store(medical, pharmacy)
    events = find_index_events(store, ProcedureCodeSet(), *WINDOW)
    summary = profile_summary(classify_providers(events, store))
    assert summary["median_share"] == pytest.approx(0.4)
    assert summary["iqr"] == (pytest.approx(0.2), pytest.approx(0.6))


def test_profile_summary_empty():
    events, store = _events_for_provider(3, 1)
    with pytest.raises(EmptyProfileSet):
        profile_summary(classify_providers(events, store))


def test_default_procedure_codes():
    codes = ProcedureCodeSet()
    assert len(codes.procedures) == 10
    assert codes.procedure_of("47562") == "laparoscopic_cholecystectomy"
    assert codes.procedure_of("27130") == "total_hip_replacement"
    assert codes.procedure_of("64721") == "carpal_tunnel_release"
    assert codes.procedure_of("99213") is None


def test_uncatalogued_fill_in_window_raises():
    store = _store(
        [_med("c1", "p1", "47562", date(2013, 2, 1))],
        [_fill("p1", date(2013, 2, 3), code="ZZZ")],
    )
    with pytest.raises(MissingCatalogEntry):
        find_index_events(store, ProcedureCodeSet(), *WINDOW)


def test_code_under_two_procedures_names_both():
    with pytest.raises(AmbiguousProcedureCode, match="47562.*cholecystectomy.*open_chole"):
        ProcedureCodeSet({
            "laparoscopic_cholecystectomy": frozenset({"47562"}),
            "open_cholecystectomy": frozenset({"47600", "47562"}),
        })


def test_procedures_file_takes_a_subset_of_the_study_procedures(tmp_path):
    # A missing procedure has no index events; the rank check drops its column.
    path = str(tmp_path / "procedures.csv")
    write_csv(path, PROCEDURE_COLUMNS, [["knee_arthroscopy", "29881"], ["breast_excision", "19301"]])
    assert ProcedureCodeSet.from_file(path).procedures == {
        "knee_arthroscopy": frozenset({"29881"}), "breast_excision": frozenset({"19301"})}


def test_procedures_file_rejects_a_procedure_outside_the_study(tmp_path):
    path = str(tmp_path / "procedures.csv")
    rows = [[name, min(codes)] for name, codes in DEFAULT_PROCEDURES.items()]
    write_csv(path, PROCEDURE_COLUMNS, rows + [["spinal_fusion", "22612"], ["face_lift", "15824"]])
    with pytest.raises(UnknownProcedure) as raised:
        ProcedureCodeSet.from_file(path)
    assert str(raised.value) == f"{path}: unknown procedures ['face_lift', 'spinal_fusion']"
