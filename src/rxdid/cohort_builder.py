"""Ordered eligibility rules producing the analyzable cohort with an
exclusion audit trail."""
from __future__ import annotations

import enum
from datetime import date, timedelta
from typing import NamedTuple

from .claims_core import (
    ClaimsStore,
    EnrollmentSpan,
    MedicalClaim,
    Setting,
    Sex,
    StudyCalendar,
    TextMemo,
    days_between,
    gc_paused,
    opioid_fills_in_window,
    read_reference_csv,
    write_csv,
)
from .prescriber_profile import (
    IndexEvent,
    ProcedureCodeSet,
    ProviderClass,
    ProviderProfile,
    eligible_procedures,
    index_event_for,
)

MIN_AGE = 18
PRIOR_ENROLLMENT_DAYS = 90
FOLLOWUP_ENROLLMENT_DAYS = 180
NAIVE_LOOKBACK_DAYS = 90


class ExclusionReason(str, enum.Enum):
    NO_ELIGIBLE_PROCEDURE = "NoEligibleProcedure"
    MULTIPLE_SAME_DAY = "MultipleSameDay"
    UNDER_AGE = "UnderAge"
    NOT_FIRST_PROCEDURE = "NotFirstProcedure"
    PROVIDER_UNCLASSIFIED = "ProviderUnclassified"
    INSUFFICIENT_PRIOR_ENROLLMENT = "InsufficientPriorEnrollment"
    INSUFFICIENT_FOLLOWUP_ENROLLMENT = "InsufficientFollowupEnrollment"
    NO_OPIOID_FILL_WITHIN_7_DAYS = "NoOpioidFillWithin7Days"
    NOT_OPIOID_NAIVE = "NotOpioidNaive"
    WASHOUT_PERIOD = "WashoutPeriod"
    OUTSIDE_STUDY_WINDOW = "OutsideStudyWindow"


class Exposure(str, enum.Enum):
    EXPOSED = "Exposed"
    UNEXPOSED = "Unexposed"


class Period(str, enum.Enum):
    PRE = "Pre"
    POST = "Post"
    WASHOUT = "Washout"
    OUTSIDE = "Outside"


class LosCategory(str, enum.Enum):
    ZERO = "Zero"
    ONE_TO_TWO = "OneToTwo"
    THREE_PLUS = "ThreePlus"


def assign_period(late_anchor: date, calendar: StudyCalendar) -> Period:
    if calendar.pre_start <= late_anchor <= calendar.pre_end:
        return Period.PRE
    if calendar.post_start <= late_anchor <= calendar.post_end:
        return Period.POST
    if calendar.pre_end < late_anchor < calendar.post_start:
        return Period.WASHOUT
    return Period.OUTSIDE


def los_category(claim: MedicalClaim) -> LosCategory:
    if claim.setting is Setting.AMBULATORY or claim.discharge_date is None:
        return LosCategory.ZERO
    start = claim.admission_date or claim.service_date
    los = days_between(start, claim.discharge_date)
    if los <= 0:
        return LosCategory.ZERO
    if los <= 2:
        return LosCategory.ONE_TO_TWO
    return LosCategory.THREE_PLUS


class CohortRow(NamedTuple):
    """An included person; the index event carries the procedure, its
    claim (provider, setting) and anchors."""

    person_id: str
    exposure: Exposure
    period: Period
    index_event: IndexEvent
    age_years: int
    sex: Sex
    los_category: LosCategory


_PRIOR_ENROLLMENT = timedelta(days=PRIOR_ENROLLMENT_DAYS)
_FOLLOWUP_ENROLLMENT = timedelta(days=FOLLOWUP_ENROLLMENT_DAYS)
# The provider classes that are included, and the exposure of each.
_EXPOSURE_OF_CLASS = {
    ProviderClass.PRESCRIBER: Exposure.EXPOSED,
    ProviderClass.NON_PRESCRIBER: Exposure.UNEXPOSED,
}


def _span_covering(spans: list[EnrollmentSpan], start: date, end: date) -> bool:
    """One merged enrollment span must fully cover [start, end]."""
    for span in spans:
        if span.start <= start and span.end >= end:
            return True
    return False


def _evaluate_person(
    person_id: str,
    store: ClaimsStore,
    profiles: dict[str, ProviderProfile],
    calendar: StudyCalendar,
    codes: ProcedureCodeSet,
) -> CohortRow | ExclusionReason:
    eligible = eligible_procedures(store, person_id, codes)
    if not eligible:
        return ExclusionReason.NO_ELIGIBLE_PROCEDURE

    # One walk in (late_anchor, claim_id) order. The first procedure in the
    # pre or post window is the index one. Exact rebills (same provider +
    # CPT) on its day collapse into it; any other eligible procedure on that
    # day triggers the same-day exclusion.
    claim = None
    saw_washout = False
    for early, late, name, other in eligible:
        if claim is None:
            period = assign_period(late, calendar)
            if period is Period.PRE or period is Period.POST:
                early_anchor, late_anchor, procedure_name, claim = early, late, name, other
            elif period is Period.WASHOUT:
                saw_washout = True
        elif late != late_anchor:
            break
        elif other.provider_id != claim.provider_id or other.cpt_code != claim.cpt_code:
            return ExclusionReason.MULTIPLE_SAME_DAY
    if claim is None:
        return ExclusionReason.WASHOUT_PERIOD if saw_washout else ExclusionReason.OUTSIDE_STUDY_WINDOW

    demo = store.demographics.get(person_id)
    if demo is None:
        # Age unverifiable without registration data; fails the age rule.
        return ExclusionReason.UNDER_AGE
    age = late_anchor.year - demo.birth_year
    if age < MIN_AGE:
        return ExclusionReason.UNDER_AGE

    profile = profiles.get(claim.provider_id)
    exposure = None if profile is None else _EXPOSURE_OF_CLASS.get(profile.provider_class)
    if exposure is None:
        return ExclusionReason.PROVIDER_UNCLASSIFIED

    spans = store.enrollment.get(person_id, ())
    if not _span_covering(spans, early_anchor - _PRIOR_ENROLLMENT, early_anchor):
        return ExclusionReason.INSUFFICIENT_PRIOR_ENROLLMENT
    if not _span_covering(spans, late_anchor, late_anchor + _FOLLOWUP_ENROLLMENT):
        return ExclusionReason.INSUFFICIENT_FOLLOWUP_ENROLLMENT

    event = index_event_for(store, early_anchor, late_anchor, procedure_name, claim)
    if event is None:
        return ExclusionReason.NO_OPIOID_FILL_WITHIN_7_DAYS

    # Opioid-naive: no oral-analgesic fill in days -90..-1 before early_anchor.
    if opioid_fills_in_window(store, person_id, early_anchor, -NAIVE_LOOKBACK_DAYS, -1):
        return ExclusionReason.NOT_OPIOID_NAIVE

    return CohortRow(person_id, exposure, period, event, age, demo.sex, los_category(claim))


@gc_paused
def build_cohort(
    store: ClaimsStore,
    profiles: dict[str, ProviderProfile],
    calendar: StudyCalendar,
    codes: ProcedureCodeSet,
) -> tuple[list[CohortRow], dict[ExclusionReason, int]]:
    """Evaluate every person with a medical claim against the ordered rules.

    Returns included rows (sorted by person_id) and the audit histogram;
    |included| + sum(audit) equals the candidate person count.
    """
    rows: list[CohortRow] = []
    audit: dict[ExclusionReason, int] = {r: 0 for r in ExclusionReason}
    for person_id in sorted(store.medical):
        result = _evaluate_person(person_id, store, profiles, calendar, codes)
        if isinstance(result, CohortRow):
            rows.append(result)
        else:
            audit[result] += 1
    return rows, audit


COHORT_COLUMNS = [
    "person_id", "provider_id", "exposure", "period", "index_claim_id",
    "early_anchor", "late_anchor", "age_years", "sex", "procedure_name",
    "setting", "los_category", "provider_type",
]
EXCLUSION_COLUMNS = ["reason", "count"]


def write_cohort_csv(path: str, rows: list[CohortRow]) -> None:
    text = TextMemo()
    write_csv(path, COHORT_COLUMNS, (
        [r.person_id, e.claim.provider_id, text[r.exposure], text[r.period],
         e.claim.claim_id, text[e.early_anchor], text[e.late_anchor],
         r.age_years, text[r.sex], e.procedure_name,
         text[e.claim.setting], text[r.los_category], text[e.claim.provider_type]]
        for r in rows for e in (r.index_event,)
    ))


def write_exclusions_csv(path: str, audit: dict[ExclusionReason, int]) -> None:
    write_csv(path, EXCLUSION_COLUMNS,
              ([reason.value, audit.get(reason, 0)] for reason in ExclusionReason))


def read_exclusions_csv(path: str) -> dict[ExclusionReason, int]:
    return dict(read_reference_csv(
        path, EXCLUSION_COLUMNS, lambda row: (ExclusionReason(row[0].strip()), int(row[1]))
    ))
