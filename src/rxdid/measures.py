"""Study outcomes, MME conversion, and the covariate vector."""
from __future__ import annotations

from dataclasses import dataclass
from datetime import timedelta
from typing import NamedTuple

from .claims_core import (
    ClaimsError,
    ClaimsStore,
    DrugCatalogEntry,
    MissingCatalogEntry,  # re-exported; raised by opioid_fills_in_window
    PharmacyClaim,
    ProviderType,
    Sex,
    normalize_dx,
    opioid_fills_in_window,
    read_reference_csv,
    write_csv,
)
from .cohort_builder import CohortRow, LosCategory
from .prescriber_profile import DEFAULT_PROCEDURES

REFILL_WINDOW = 30
PERSISTENCE_START = 90
PERSISTENCE_END = 180
COMORBIDITY_LOOKBACK = 180
ANTIDEPRESSANT_LOOKBACK = 90


class MeasureError(Exception):
    pass


class NotAnalgesicOpioid(MeasureError):
    pass


class MissingDemographics(MeasureError):
    pass


class InvalidComorbidityMap(ClaimsError):
    pass


class OutcomeVector(NamedTuple):
    persistent_use_90_180: bool
    initial_mme_7d: float
    any_refill_30d: bool
    total_mme_30d: float


def mme_of_fill(claim: PharmacyClaim, entry: DrugCatalogEntry) -> float:
    """Morphine milligram equivalents: strength x quantity x conversion factor."""
    if not entry.is_oral_analgesic_opioid:
        raise NotAnalgesicOpioid(entry.drug_code)
    return entry.strength_mg_per_unit * claim.quantity * entry.mme_factor


def compute_outcomes(row: CohortRow, store: ClaimsStore) -> OutcomeVector:
    """The four outcomes, all windows anchored at the index late_anchor.

    The initial fill is the index event's: its first-day fills give the
    initial MME, and a later fill within REFILL_WINDOW is a refill.
    """
    event = row.index_event
    anchor = event.late_anchor
    first = event.first_opioid_fills
    first_day = (first[0].fill_date - anchor).days
    initial_mme = sum(mme_of_fill(f, store.catalog[f.drug_code]) for f in first)

    # One pass in date order; the 30-day total adds its MMEs in stored order.
    total_mme_30 = 0
    any_refill = persistent = False
    for d, f, e in opioid_fills_in_window(store, row.person_id, anchor, 0, PERSISTENCE_END):
        if d <= REFILL_WINDOW:
            total_mme_30 += mme_of_fill(f, e)
            any_refill = any_refill or d > first_day
        if d >= PERSISTENCE_START:
            persistent = True
    return OutcomeVector(persistent, initial_mme, any_refill, total_mme_30)


# Comorbidity conditions with ICD-9-CM prefixes from the standard
# administrative-data crosswalk. Shipped as editable configuration
# (comorbidity_map.csv); these are the defaults.
DEFAULT_COMORBIDITY_MAP: dict[str, tuple[str, ...]] = {
    "congestive_heart_failure": (
        "39891", "40201", "40211", "40291", "40401", "40403", "40411",
        "40413", "40491", "40493", "4254", "4255", "4256", "4257", "4258",
        "4259", "428",
    ),
    "cardiac_arrhythmia": (
        "4260", "42613", "4267", "4269", "42610", "42612", "4270", "4271",
        "4272", "4273", "4274", "4276", "4278", "4279", "7850", "99601",
        "99604", "V450", "V533",
    ),
    "cardiac_valve_disease": (
        "0932", "394", "395", "396", "397", "424", "7463", "7464", "7465",
        "7466", "V422", "V433",
    ),
    "peripheral_vascular_disorders": (
        "0930", "4373", "440", "441", "4431", "4432", "4438", "4439",
        "4471", "5571", "5579", "V434",
    ),
    "hypertension_uncomplicated": ("401",),
    "hypertension_complicated": ("402", "403", "404", "405"),
    "other_neurological_disorders": (
        "3319", "3320", "3321", "3334", "3335", "33392", "334", "335",
        "3362", "340", "341", "345", "3481", "3483", "7803", "7843",
    ),
    "chronic_pulmonary_disease": (
        "4168", "4169", "490", "491", "492", "493", "494", "495", "496",
        "500", "501", "502", "503", "504", "505", "5064", "5081", "5088",
    ),
    "diabetes_uncomplicated": ("2500", "2501", "2502", "2503"),
    "diabetes_complicated": ("2504", "2505", "2506", "2507", "2508", "2509"),
    "hypothyroidism": ("2409", "243", "244", "2461", "2468"),
    "renal_failure": (
        "40301", "40311", "40391", "40402", "40412", "40492", "585", "586",
        "5880", "V420", "V451", "V56",
    ),
    "liver_disease": (
        "07022", "07023", "07032", "07033", "07044", "07054", "0706",
        "0709", "4560", "4561", "4562", "570", "571", "5722", "5723",
        "5724", "5728", "5733", "5734", "5738", "5739", "V427",
    ),
    "solid_tumor_without_metastasis": tuple(
        str(c) for c in list(range(140, 173)) + list(range(174, 196))
    ),
    "rheumatoid_arthritis": (
        "446", "7010", "7100", "7101", "7102", "7103", "7104", "7108",
        "7109", "7112", "714", "7193", "720", "725", "7285", "72889",
        "72930",
    ),
    "coagulopathy": ("286", "2871", "2873", "2874", "2875"),
    "obesity": ("2780",),
    "fluid_electrolyte_disorders": ("2536", "276"),
    "deficiency_anemia": ("2801", "2808", "2809", "281"),
    "depression": ("2962", "2963", "2965", "3004", "309", "311"),
}


COMORBIDITY_MAP_COLUMNS = ["condition", "icd9_prefix"]


def _parse_comorbidity(row: list[str]) -> tuple[str, str]:
    prefix = normalize_dx(row[1])
    if not prefix:
        # an empty prefix would match every diagnosis code
        raise ValueError("empty icd9_prefix")
    return row[0].strip(), prefix


@dataclass(frozen=True)
class ComorbidityMap:
    conditions: dict[str, tuple[str, ...]]

    def __post_init__(self):
        index: dict[str, set[str]] = {}
        for condition, prefixes in self.conditions.items():
            for p in prefixes:
                index.setdefault(p, set()).add(condition)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_prefix_lengths", sorted({len(p) for p in index}))
        # conditions_for's answer per diagnosis code, filled on first ask
        object.__setattr__(self, "_by_code", {})

    @classmethod
    def default(cls) -> "ComorbidityMap":
        return cls(dict(DEFAULT_COMORBIDITY_MAP))

    @classmethod
    def from_file(cls, path: str) -> "ComorbidityMap":
        """Read a map whose conditions are exactly COMORBIDITY_ORDER."""
        conditions: dict[str, list[str]] = {}
        for condition, prefix in read_reference_csv(path, COMORBIDITY_MAP_COLUMNS,
                                                    _parse_comorbidity):
            conditions.setdefault(condition, []).append(prefix)
        missing = [c for c in COMORBIDITY_ORDER if c not in conditions]
        unknown = sorted(set(conditions) - set(COMORBIDITY_ORDER))
        if missing or unknown:
            raise InvalidComorbidityMap(
                f"{path}: missing conditions {missing}, unknown conditions {unknown}"
            )
        return cls({k: tuple(v) for k, v in conditions.items()})

    def conditions_for(self, dx: str) -> frozenset[str]:
        """All conditions whose prefix list matches this normalized code."""
        found = self._by_code.get(dx)
        if found is None:
            matched: set[str] = set()
            for ln in self._prefix_lengths:
                if ln > len(dx):
                    break
                matched |= self._index.get(dx[:ln], set())
            found = self._by_code[dx] = frozenset(matched)
        return found


def write_comorbidity_map_csv(path: str, cmap: ComorbidityMap) -> None:
    write_csv(path, COMORBIDITY_MAP_COLUMNS, (
        [condition, prefix]
        for condition, prefixes in cmap.conditions.items() for prefix in prefixes
    ))


COMORBIDITY_ORDER = list(DEFAULT_COMORBIDITY_MAP)

# Procedure indicators: one per study procedure but the reference.
PROCEDURE_REFERENCE = "laparoscopic_cholecystectomy"
PROCEDURE_ORDER = [name for name in DEFAULT_PROCEDURES if name != PROCEDURE_REFERENCE]

# The covariates read off the cohort row, in the order compute_covariates lists them.
_ROW_COVARIATES = ["age", "sex_female", "provider_group_practice", "los_1_2", "los_3plus"]
COVARIATE_COLUMNS = (
    _ROW_COVARIATES + [f"proc_{name}" for name in PROCEDURE_ORDER]
    + COMORBIDITY_ORDER + ["antidepressant_90d"]
)


ANTIDEPRESSANT_COLUMNS = ["drug_code"]


def read_antidepressants_csv(path: str) -> frozenset[str]:
    return frozenset(read_reference_csv(path, ANTIDEPRESSANT_COLUMNS, lambda row: row[0].strip()))


def write_antidepressants_csv(path: str, codes) -> None:
    write_csv(path, ANTIDEPRESSANT_COLUMNS, ([code] for code in sorted(codes)))


# each covariate's position in COVARIATE_COLUMNS
_POSITION = {name: i for i, name in enumerate(COVARIATE_COLUMNS)}
_PROCEDURE_POSITION = {name: _POSITION[f"proc_{name}"] for name in PROCEDURE_ORDER}
_ANTIDEPRESSANT_POSITION = _POSITION["antidepressant_90d"]
# the procedure, comorbidity and antidepressant flags before any is set
_ZERO_FLAGS = [0.0] * (len(COVARIATE_COLUMNS) - len(_ROW_COVARIATES))
_COMORBIDITY_SPAN = timedelta(days=COMORBIDITY_LOOKBACK)
_ANTIDEPRESSANT_SPAN = timedelta(days=ANTIDEPRESSANT_LOOKBACK)


def compute_covariates(
    row: CohortRow,
    store: ClaimsStore,
    cmap: ComorbidityMap,
    antidepressant_codes: frozenset[str] = frozenset(),
) -> list[float]:
    """The row's covariate values in COVARIATE_COLUMNS order.

    Comorbidity flags come from diagnoses on claims with service dates in
    days -180..-1 before the index early_anchor; the antidepressant flag
    from tagged fills in days -90..-1.
    """
    if row.person_id not in store.demographics:
        raise MissingDemographics(row.person_id)
    event = row.index_event
    early = event.early_anchor
    values = [
        float(row.age_years),
        1.0 if row.sex is Sex.FEMALE else 0.0,
        1.0 if event.claim.provider_type is ProviderType.GROUP_PRACTICE else 0.0,
        1.0 if row.los_category is LosCategory.ONE_TO_TWO else 0.0,
        1.0 if row.los_category is LosCategory.THREE_PLUS else 0.0,
    ]
    values += _ZERO_FLAGS
    position = _PROCEDURE_POSITION.get(event.procedure_name)
    if position is not None:
        values[position] = 1.0

    # day -1 is the last day before early
    start = early - _COMORBIDITY_SPAN
    for claim in store.medical.get(row.person_id, ()):
        if start <= claim.service_date < early:
            for dx in claim.diagnoses:
                for condition in cmap.conditions_for(dx):
                    values[_POSITION[condition]] = 1.0

    if antidepressant_codes:
        start = early - _ANTIDEPRESSANT_SPAN
        for fill in store.pharmacy.get(row.person_id, ()):
            if start <= fill.fill_date < early and fill.drug_code in antidepressant_codes:
                values[_ANTIDEPRESSANT_POSITION] = 1.0
                break
    return values
