"""Cohort eligibility rules, including the 20-person golden fixture in
which each excluded person violates exactly one rule."""
from datetime import date, timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rxdid.claims_core import (
    DrugCatalogEntry,
    EnrollmentSpan,
    MedicalClaim,
    OpioidIngredient,
    PersonDemographics,
    PharmacyClaim,
    ProviderType,
    Setting,
    Sex,
    StudyCalendar,
    store_from_records,
)
from rxdid.cohort_builder import (
    FOLLOWUP_ENROLLMENT_DAYS,
    MIN_AGE,
    NAIVE_LOOKBACK_DAYS,
    PRIOR_ENROLLMENT_DAYS,
    CohortRow,
    ExclusionReason,
    Exposure,
    Period,
    assign_period,
    build_cohort,
    los_category,
)
from rxdid.measures import OutcomeVector, compute_outcomes
from rxdid.prescriber_profile import (
    HIP_FRACTURE_DX_PREFIX,
    OPIOID_FILL_WINDOW_DAYS,
    IndexEvent,
    ProcedureCodeSet,
    ProviderClass,
    ProviderProfile,
    classify_providers,
    find_index_events,
)

CAL = StudyCalendar()
CATALOG = [
    DrugCatalogEntry("HYD5", OpioidIngredient.HYDROCODONE, True, 5.0, 1.0),
    DrugCatalogEntry("OXY5", OpioidIngredient.OXYCODONE, True, 5.0, 1.5),
]


@pytest.mark.parametrize("day,expected", [
    (date(2014, 8, 21), Period.PRE),
    (date(2014, 8, 22), Period.WASHOUT),
    (date(2014, 9, 15), Period.WASHOUT),
    (date(2014, 10, 5), Period.WASHOUT),
    (date(2014, 10, 6), Period.POST),
    (date(2015, 10, 5), Period.POST),
    (date(2015, 10, 6), Period.OUTSIDE),
    (date(2011, 8, 21), Period.OUTSIDE),
    (date(2011, 8, 22), Period.PRE),
])
def test_assign_period_boundaries(day, expected):
    assert assign_period(day, CAL) is expected


class FixtureBuilder:
    """Builds persons one at a time with full default eligibility, then
    perturbs a single rule per person."""

    def __init__(self):
        self.spans = []
        self.pharmacy = []
        self.medical = []
        self.persons = []
        self.claim_n = 0

    def claim_id(self):
        self.claim_n += 1
        return f"c{self.claim_n:03d}"

    def add(self, pid, index_day=date(2013, 5, 10), cpt="47562", provider="drP",
            birth_year=1960, enroll=True, fill_offset=1, fill=True,
            fill_code="HYD5", prior_fill_day=None, dx=(), extra_claims=()):
        self.persons.append(PersonDemographics(pid, birth_year, Sex.FEMALE))
        if enroll:
            self.spans.append(EnrollmentSpan(
                pid, index_day - timedelta(days=120), index_day + timedelta(days=200)
            ))
        self.medical.append(MedicalClaim(
            self.claim_id(), pid, provider, ProviderType.INDIVIDUAL, cpt,
            index_day, None, None, Setting.AMBULATORY, tuple(dx),
        ))
        for claim in extra_claims:
            self.medical.append(claim)
        if fill:
            self.pharmacy.append(PharmacyClaim(
                pid, index_day + timedelta(days=fill_offset), fill_code, 30.0
            ))
        if prior_fill_day is not None:
            self.pharmacy.append(PharmacyClaim(pid, prior_fill_day, "HYD5", 10.0))

    def store(self):
        return store_from_records(
            self.spans, self.pharmacy, self.medical, self.persons, CATALOG
        )


def _profiling_providers(fb):
    """Give drP (all-hydrocodone) and drN (all-oxycodone) five pre-window
    profiling events each, plus unclassifiable drI / drF."""
    base = date(2012, 3, 1)
    for i in range(5):
        for prov, code in (("drP", "HYD5"), ("drN", "OXY5")):
            pid = f"prof_{prov}_{i}"
            fb.persons.append(PersonDemographics(pid, 1970, Sex.MALE))
            fb.medical.append(MedicalClaim(
                fb.claim_id(), pid, prov, ProviderType.INDIVIDUAL, "47562",
                base + timedelta(days=i), None, None, Setting.AMBULATORY, (),
            ))
            fb.pharmacy.append(PharmacyClaim(
                pid, base + timedelta(days=i + 1), code, 30.0
            ))
    # drI: 2/4 hydrocodone on 4 events -> Insufficient
    for i in range(4):
        pid = f"prof_drI_{i}"
        fb.persons.append(PersonDemographics(pid, 1970, Sex.MALE))
        fb.medical.append(MedicalClaim(
            fb.claim_id(), pid, "drI", ProviderType.INDIVIDUAL, "47562",
            base + timedelta(days=i), None, None, Setting.AMBULATORY, (),
        ))
        fb.pharmacy.append(PharmacyClaim(
            pid, base + timedelta(days=i + 1), "HYD5" if i < 2 else "OXY5", 30.0
        ))
    # drF: 3/6 hydrocodone -> Indeterminate
    for i in range(6):
        pid = f"prof_drF_{i}"
        fb.persons.append(PersonDemographics(pid, 1970, Sex.MALE))
        fb.medical.append(MedicalClaim(
            fb.claim_id(), pid, "drF", ProviderType.INDIVIDUAL, "47562",
            base + timedelta(days=i), None, None, Setting.AMBULATORY, (),
        ))
        fb.pharmacy.append(PharmacyClaim(
            pid, base + timedelta(days=i + 1), "HYD5" if i < 3 else "OXY5", 30.0
        ))


def golden_fixture():
    """20 study persons: 8 included, 12 excluded for one reason each."""
    fb = FixtureBuilder()
    # Included: 4 pre (2 exposed, 2 unexposed), 4 post (2 exposed, 2 unexposed)
    fb.add("inc_pre_e1", date(2013, 5, 10))
    fb.add("inc_pre_e2", date(2014, 8, 21))           # last pre day
    fb.add("inc_pre_u1", date(2012, 7, 1), provider="drN", fill_code="OXY5")
    fb.add("inc_pre_u2", date(2013, 11, 2), provider="drN", fill_code="OXY5")
    fb.add("inc_post_e1", date(2014, 10, 6))          # first post day
    fb.add("inc_post_e2", date(2015, 3, 3))
    fb.add("inc_post_u1", date(2014, 12, 1), provider="drN", fill_code="OXY5")
    fb.add("inc_post_u2", date(2015, 9, 1), provider="drN", fill_code="OXY5")
    # Excluded, one rule each
    fb.add("ex_washout", date(2014, 9, 15))
    fb.add("ex_outside", date(2011, 8, 21))
    fb2_day = date(2013, 6, 1)
    fb.add("ex_sameday", fb2_day, extra_claims=[MedicalClaim(
        "c900", "ex_sameday", "drP", ProviderType.INDIVIDUAL, "49505",
        fb2_day, None, None, Setting.AMBULATORY, (),
    )])
    fb.add("ex_underage", date(2013, 6, 1), birth_year=2000)
    fb.add("ex_unclassified_ind", date(2013, 6, 1), provider="drF")
    fb.add("ex_unclassified_insuf", date(2013, 6, 1), provider="drI")
    fb.add("ex_prior_enroll", date(2013, 6, 1), enroll=False)
    fb.spans.append(EnrollmentSpan(  # starts too late for the 90-day lookback
        "ex_prior_enroll", date(2013, 5, 1), date(2014, 2, 1)
    ))
    fb.add("ex_followup_enroll", date(2013, 6, 1), enroll=False)
    fb.spans.append(EnrollmentSpan(  # ends before +180 days
        "ex_followup_enroll", date(2013, 1, 1), date(2013, 9, 1)
    ))
    fb.add("ex_no_fill", date(2013, 6, 1), fill=False)
    fb.add("ex_late_fill", date(2013, 6, 1), fill=False)
    fb.pharmacy.append(PharmacyClaim(  # day 8: outside the 0..7 window
        "ex_late_fill", date(2013, 6, 9), "HYD5", 30.0
    ))
    fb.add("ex_not_naive", date(2013, 6, 1),
           prior_fill_day=date(2013, 6, 1) - timedelta(days=30))
    fb.add("ex_no_procedure", date(2013, 6, 1), cpt="99213")
    _profiling_providers(fb)
    return fb.store()


# Counts cover the 12 deliberately-excluded study persons plus the 25
# profiling-only persons, which are candidates too: the 10 under drI/drF
# fall to ProviderUnclassified and the 10 under drP/drN (no enrollment
# spans) to InsufficientPriorEnrollment.
EXPECTED_AUDIT = {
    ExclusionReason.WASHOUT_PERIOD: 1,
    ExclusionReason.OUTSIDE_STUDY_WINDOW: 1,
    ExclusionReason.MULTIPLE_SAME_DAY: 1,
    ExclusionReason.UNDER_AGE: 1,
    ExclusionReason.PROVIDER_UNCLASSIFIED: 2 + 10,
    ExclusionReason.INSUFFICIENT_PRIOR_ENROLLMENT: 1 + 10,
    ExclusionReason.INSUFFICIENT_FOLLOWUP_ENROLLMENT: 1,
    ExclusionReason.NO_OPIOID_FILL_WITHIN_7_DAYS: 2,
    ExclusionReason.NOT_OPIOID_NAIVE: 1,
    ExclusionReason.NO_ELIGIBLE_PROCEDURE: 1,
}


def _cohort(store):
    codes = ProcedureCodeSet()
    events = find_index_events(store, codes, CAL.profiling_start, CAL.profiling_end)
    profiles = classify_providers(events, store)
    return build_cohort(store, profiles, CAL, codes)


def test_golden_fixture_audit_histogram():
    store = golden_fixture()
    rows, audit = _cohort(store)
    study_rows = [r for r in rows if not r.person_id.startswith("prof_")]
    assert {r.person_id for r in study_rows} == {
        "inc_pre_e1", "inc_pre_e2", "inc_pre_u1", "inc_pre_u2",
        "inc_post_e1", "inc_post_e2", "inc_post_u1", "inc_post_u2",
    }
    for reason in ExclusionReason:
        assert audit[reason] == EXPECTED_AUDIT.get(reason, 0), reason


def test_golden_fixture_period_and_exposure():
    store = golden_fixture()
    rows, _ = _cohort(store)
    by_id = {r.person_id: r for r in rows}
    assert by_id["inc_pre_e2"].period is Period.PRE        # 2014-08-21
    assert by_id["inc_post_e1"].period is Period.POST      # 2014-10-06
    assert by_id["inc_pre_e1"].exposure is Exposure.EXPOSED
    assert by_id["inc_pre_u1"].exposure is Exposure.UNEXPOSED


def test_accounting_identity():
    store = golden_fixture()
    rows, audit = _cohort(store)
    candidates = len(store.medical)
    assert len(rows) + sum(audit.values()) == candidates


def test_determinism_under_input_order():
    store = golden_fixture()
    rows1, audit1 = _cohort(store)
    # rebuild with reversed record insertion order
    import rxdid.claims_core as cc
    spans = [s for spans in store.enrollment.values() for s in spans]
    pharmacy = [c for cs in store.pharmacy.values() for c in cs]
    medical = [c for cs in store.medical.values() for c in cs]
    persons = list(store.demographics.values())
    store2 = cc.store_from_records(
        spans[::-1], pharmacy[::-1], medical[::-1], persons[::-1],
        list(store.catalog.values()),
    )
    rows2, audit2 = _cohort(store2)
    assert [r.person_id for r in rows1] == [r.person_id for r in rows2]
    assert audit1 == audit2


def test_all_prescriber_providers_all_exposed():
    store = golden_fixture()
    rows, _ = _cohort(store)
    for r in rows:
        if r.index_event.claim.provider_id == "drP":
            assert r.exposure is Exposure.EXPOSED


def test_one_row_per_person():
    store = golden_fixture()
    rows, _ = _cohort(store)
    ids = [r.person_id for r in rows]
    assert len(ids) == len(set(ids))


def test_first_procedure_across_periods():
    # eligible surgeries in both pre and post: the first (pre) one is used
    fb = FixtureBuilder()
    _profiling_providers(fb)
    fb.add("p_both", date(2013, 4, 1))
    fb.medical.append(MedicalClaim(
        fb.claim_id(), "p_both", "drP", ProviderType.INDIVIDUAL, "49505",
        date(2014, 11, 1), None, None, Setting.AMBULATORY, (),
    ))
    rows, _ = _cohort(fb.store())
    row = next(r for r in rows if r.person_id == "p_both")
    assert row.period is Period.PRE
    assert row.index_event.procedure_name == "laparoscopic_cholecystectomy"


def _study_person(add):
    """The cohort row of the one study person that ``add(fb)`` puts next to
    the profiling providers, or the list of rules that excluded it."""
    fb = FixtureBuilder()
    _profiling_providers(fb)
    _, base = _cohort(fb.store())
    add(fb)
    rows, audit = _cohort(fb.store())
    study = [r for r in rows if not r.person_id.startswith("prof_")]
    return study[0] if study else [r for r in ExclusionReason if audit[r] != base[r]]


def _same_day_claim(claim_id, pid, day, provider, cpt):
    return MedicalClaim(claim_id, pid, provider, ProviderType.INDIVIDUAL, cpt,
                        day, None, None, Setting.AMBULATORY, ())


def test_exact_same_day_rebill_is_included_under_lower_claim_id():
    day = date(2013, 6, 1)
    row = _study_person(lambda fb: fb.add("p_rebill", day, extra_claims=[
        _same_day_claim("c000", "p_rebill", day, "drP", "47562")]))
    assert row.person_id == "p_rebill"
    assert row.index_event.claim.claim_id == "c000"


@pytest.mark.parametrize("provider,cpt", [("drN", "47562"), ("drP", "49505")])
def test_same_day_claim_at_other_provider_or_cpt_excludes(provider, cpt):
    day = date(2013, 6, 1)
    verdict = _study_person(lambda fb: fb.add("p_two", day, extra_claims=[
        _same_day_claim("c000", "p_two", day, provider, cpt)]))
    assert verdict == [ExclusionReason.MULTIPLE_SAME_DAY]


def test_washout_claim_and_outside_claim_exclude_as_washout():
    verdict = _study_person(lambda fb: fb.add("p_wo", date(2014, 9, 15), extra_claims=[
        _same_day_claim("c000", "p_wo", date(2011, 8, 1), "drP", "47562")]))
    assert verdict == [ExclusionReason.WASHOUT_PERIOD]


# -- the cohort rules against a plain reference ------------------------------

def _reference_fills(store, pid, anchor, lo, hi):
    """(offset, fill) of each oral-analgesic fill lo..hi days from anchor,
    by a scan of the person's whole fill list."""
    out = []
    for fill in store.pharmacy.get(pid, ()):
        offset = (fill.fill_date - anchor).days
        if lo <= offset <= hi and store.catalog[fill.drug_code].is_oral_analgesic_opioid:
            out.append((offset, fill))
    return out


def _reference_person(pid, store, profiles, calendar, codes):
    """The cohort rules in their plain order: eligible list, in-window
    list, same-day check, age, provider class, enrollment, 7-day fill,
    opioid-naive."""
    eligible = []
    for claim in store.medical.get(pid, ()):
        name = codes.procedure_of(claim.cpt_code)
        if name is None or (name == "total_hip_replacement" and any(
                dx.startswith(HIP_FRACTURE_DX_PREFIX) for dx in claim.diagnoses)):
            continue
        early = min(claim.service_date, claim.admission_date or claim.service_date)
        late = max(claim.service_date, claim.discharge_date or claim.service_date)
        eligible.append((early, late, name, claim))
    eligible.sort(key=lambda p: (p[1], p[3].claim_id))
    if not eligible:
        return ExclusionReason.NO_ELIGIBLE_PROCEDURE

    periods = [(p, assign_period(p[1], calendar)) for p in eligible]
    in_window = [(p, period) for p, period in periods if period in (Period.PRE, Period.POST)]
    if not in_window:
        if any(period is Period.WASHOUT for _, period in periods):
            return ExclusionReason.WASHOUT_PERIOD
        return ExclusionReason.OUTSIDE_STUDY_WINDOW
    (early, late, name, claim), period = in_window[0]
    if any(other[1] == late
           and (other[3].provider_id, other[3].cpt_code) != (claim.provider_id, claim.cpt_code)
           for other, _ in in_window[1:]):
        return ExclusionReason.MULTIPLE_SAME_DAY

    demo = store.demographics.get(pid)
    if demo is None or late.year - demo.birth_year < MIN_AGE:
        return ExclusionReason.UNDER_AGE
    profile = profiles.get(claim.provider_id)
    if profile is None or profile.provider_class not in (
            ProviderClass.PRESCRIBER, ProviderClass.NON_PRESCRIBER):
        return ExclusionReason.PROVIDER_UNCLASSIFIED
    spans = store.enrollment.get(pid, ())
    if not any(s.start <= early - timedelta(days=PRIOR_ENROLLMENT_DAYS) and s.end >= early
               for s in spans):
        return ExclusionReason.INSUFFICIENT_PRIOR_ENROLLMENT
    if not any(s.start <= late and s.end >= late + timedelta(days=FOLLOWUP_ENROLLMENT_DAYS)
               for s in spans):
        return ExclusionReason.INSUFFICIENT_FOLLOWUP_ENROLLMENT
    fills = _reference_fills(store, pid, late, 0, OPIOID_FILL_WINDOW_DAYS)
    if not fills:
        return ExclusionReason.NO_OPIOID_FILL_WITHIN_7_DAYS
    if _reference_fills(store, pid, early, -NAIVE_LOOKBACK_DAYS, -1):
        return ExclusionReason.NOT_OPIOID_NAIVE

    first_day = min(offset for offset, _ in fills)
    event = IndexEvent(name, claim, early, late,
                       tuple(f for offset, f in fills if offset == first_day))
    exposure = (Exposure.EXPOSED if profile.provider_class is ProviderClass.PRESCRIBER
                else Exposure.UNEXPOSED)
    return CohortRow(pid, exposure, period, event, late.year - demo.birth_year, demo.sex,
                     los_category(claim))


def _reference_cohort(store, profiles, calendar, codes):
    rows, audit = [], {r: 0 for r in ExclusionReason}
    for pid in sorted(store.medical):
        result = _reference_person(pid, store, profiles, calendar, codes)
        if isinstance(result, CohortRow):
            rows.append(result)
        else:
            audit[result] += 1
    return rows, audit


# Days that sit on or next to each calendar boundary, in every period.
_DAYS = [
    CAL.pre_start - timedelta(days=3), CAL.pre_start, CAL.pre_start + timedelta(days=200),
    date(2013, 5, 10), CAL.pre_end, CAL.pre_end + timedelta(days=1),
    CAL.post_start - timedelta(days=1), CAL.post_start, date(2015, 3, 3),
    CAL.post_end, CAL.post_end + timedelta(days=1),
]
# eligible CPTs of three procedures, a total hip replacement, and one CPT of no procedure
_CPTS = ["47562", "49505", "27130", "99213"]
# drP and drN are included, drF is Indeterminate and drX was never profiled
_PROVIDERS = ["drP", "drP", "drP", "drN", "drN", "drN", "drF", "drX"]
# a day-1 fill is drawn most often, so that many persons pass every rule
_FILL_OFFSETS = [-91, -90, -30, -30, -1, 0, 1, 1, 1, 1, 3, 7, 8, 31, 95]
_ENROLL_STARTS = [-91, -90, -89]
_ENROLL_ENDS = [-1, 179, 180]
_PROFILES = {
    pid: ProviderProfile(pid, ProviderType.INDIVIDUAL, 5, n, Fraction(n, 5), cls)
    for pid, n, cls in (("drP", 5, ProviderClass.PRESCRIBER),
                        ("drN", 0, ProviderClass.NON_PRESCRIBER),
                        ("drF", 2, ProviderClass.INDETERMINATE))
}


@st.composite
def _cohort_stores(draw):
    """Up to four persons with up to four claims each, drawn from a few
    days (half of them on one day), CPTs and providers so that same-day
    claims, exact rebills, washout and outside claims, enrollment gaps,
    missing demographics and prior opioid fills all occur."""
    spans, fills, claims, persons = [], [], [], []
    for p in range(draw(st.integers(1, 4))):
        pid = f"p{p}"
        days = []
        home = draw(st.sampled_from(_DAYS))
        for _ in range(draw(st.integers(1, 4))):
            day = draw(st.sampled_from([home] * len(_DAYS) + _DAYS))
            cpt = draw(st.sampled_from(_CPTS))
            inpatient = draw(st.booleans())
            claims.append(MedicalClaim(
                f"c{len(claims):03d}", pid, draw(st.sampled_from(_PROVIDERS)),
                ProviderType.INDIVIDUAL, cpt, day,
                day - timedelta(days=2) if inpatient and draw(st.booleans()) else None,
                day + timedelta(days=draw(st.sampled_from([0, 3]))) if inpatient else None,
                Setting.INPATIENT if inpatient else Setting.AMBULATORY,
                ("82021",) if cpt == "27130" and draw(st.booleans()) else (),
            ))
            days.append(day)
        for _ in range(draw(st.integers(0, 4))):
            day = draw(st.sampled_from(days)) + timedelta(days=draw(st.sampled_from(_FILL_OFFSETS)))
            fills.append(PharmacyClaim(pid, day, draw(st.sampled_from(["HYD5", "OXY5", "FENTP"])),
                                       float(draw(st.integers(1, 3)) * 10)))
        enrollment = draw(st.sampled_from(["all", "all", "all", "near", "gap", "none"]))
        if enrollment == "all":
            spans.append(EnrollmentSpan(pid, CAL.pre_start - timedelta(days=400),
                                        CAL.post_end + timedelta(days=400)))
        elif enrollment != "none":
            # near the rules' bounds around one claim day; "gap" splits it
            day = draw(st.sampled_from(days))
            start = day + timedelta(days=draw(st.sampled_from(_ENROLL_STARTS)))
            end = day + timedelta(days=draw(st.sampled_from(_ENROLL_ENDS)))
            if enrollment == "gap":
                spans.append(EnrollmentSpan(pid, start, day - timedelta(days=30)))
                start = day - timedelta(days=28)
            spans.append(EnrollmentSpan(pid, start, end))
        if draw(st.integers(0, 7)):
            persons.append(PersonDemographics(pid, draw(st.sampled_from([1960, 1960, 1960, 1995])),
                                              Sex.FEMALE))
    catalog = CATALOG + [DrugCatalogEntry("FENTP", OpioidIngredient.FENTANYL, False, 0.0, 0.0)]
    return store_from_records(spans, fills, claims, persons, catalog)


@settings(max_examples=500, deadline=None)
@given(_cohort_stores())
def test_cohort_rules_equal_the_plain_reference(store):
    codes = ProcedureCodeSet()
    assert build_cohort(store, _PROFILES, CAL, codes) == _reference_cohort(
        store, _PROFILES, CAL, codes)


# Each record's fields in the order the parsers, the generator and the
# tests pass them positionally; a reordered field would swap values silently.
RECORD_FIELDS = {
    EnrollmentSpan: ("person_id", "start", "end"),
    PharmacyClaim: ("person_id", "fill_date", "drug_code", "quantity", "days_supply"),
    MedicalClaim: ("claim_id", "person_id", "provider_id", "provider_type", "cpt_code",
                   "service_date", "admission_date", "discharge_date", "setting",
                   "diagnoses"),
    PersonDemographics: ("person_id", "birth_year", "sex"),
    DrugCatalogEntry: ("drug_code", "opioid_ingredient", "is_oral_analgesic_opioid",
                       "strength_mg_per_unit", "mme_factor"),
    IndexEvent: ("procedure_name", "claim", "early_anchor", "late_anchor",
                 "first_opioid_fills"),
    ProviderProfile: ("provider_id", "provider_type", "n_events", "n_hydrocodone",
                      "hydrocodone_share", "provider_class"),
    CohortRow: ("person_id", "exposure", "period", "index_event", "age_years", "sex",
                "los_category"),
    OutcomeVector: ("persistent_use_90_180", "initial_mme_7d", "any_refill_30d",
                    "total_mme_30d"),
}


def test_records_are_slotted():
    # Immutable and hashable, without a per-instance __dict__, and with the
    # fields above in that order.
    store = golden_fixture()
    rows, _ = _cohort(store)
    event = rows[0].index_event
    records = [
        store.enrollment["inc_pre_e1"][0], store.pharmacy["inc_pre_e1"][0], event.claim,
        store.demographics["inc_pre_e1"], store.catalog["HYD5"], event,
        _PROFILES["drP"], rows[0], compute_outcomes(rows[0], store),
    ]
    assert [type(r) for r in records] == list(RECORD_FIELDS)
    for record in records:
        cls = type(record)
        assert cls._fields == RECORD_FIELDS[cls], cls.__name__
        assert not hasattr(record, "__dict__"), cls.__name__
        assert {record, cls(*record)} == {record}
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = None
        assert record == cls(**{name: getattr(record, name) for name in cls._fields})
    defaults = {cls.__name__: cls._field_defaults for cls in RECORD_FIELDS if cls._field_defaults}
    assert defaults == {"PharmacyClaim": {"days_supply": None}}
