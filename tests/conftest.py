"""Helpers shared by the test modules."""
from typing import NamedTuple

from rxdid.claims_core import ClaimsStore, StudyCalendar
from rxdid.cohort_builder import CohortRow, build_cohort
from rxdid.measures import ComorbidityMap
from rxdid.prescriber_profile import (
    IndexEvent,
    ProcedureCodeSet,
    ProviderProfile,
    classify_providers,
    find_index_events,
)
from rxdid.study_analysis import build_analysis_table
from rxdid.synthgen import ANTIDEPRESSANT_CODES, GroundTruth, SimConfig, generate


class Pipeline(NamedTuple):
    store: ClaimsStore
    truth: GroundTruth
    events: list[IndexEvent]
    profiles: dict[str, ProviderProfile]
    rows: list[CohortRow]
    table: dict


def simulated_pipeline(config: SimConfig) -> Pipeline:
    """A simulated store through index events, provider profiles, cohort
    and analysis table, on the default calendar, procedure codes,
    comorbidity map and antidepressant codes."""
    store, truth = generate(config)
    calendar = StudyCalendar()
    codes = ProcedureCodeSet()
    events = find_index_events(store, codes, calendar.profiling_start, calendar.profiling_end)
    profiles = classify_providers(events, store)
    rows, _ = build_cohort(store, profiles, calendar, codes)
    table = build_analysis_table(
        rows, store, ComorbidityMap.default(), frozenset(ANTIDEPRESSANT_CODES))
    return Pipeline(store, truth, events, profiles, rows, table)
