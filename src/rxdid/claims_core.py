"""Domain data model, calendar arithmetic, and validated CSV ingestion.

All dates are ``datetime.date``; every window rule downstream works in
calendar days via :func:`days_between`.
"""
from __future__ import annotations

import csv
import enum
import os
from dataclasses import dataclass, field
from datetime import date, timedelta


class ClaimsError(Exception):
    """Base class for ingestion and data-model errors."""


class MalformedRow(ClaimsError):
    def __init__(self, filename: str, line: int, reason: str):
        self.filename = filename
        self.line = line
        self.reason = reason
        super().__init__(f"{filename}:{line}: {reason}")


class UnknownColumn(ClaimsError):
    pass


class DuplicateClaimId(ClaimsError):
    pass


class InvalidDate(ClaimsError):
    pass


class CalendarMisconfigured(ClaimsError):
    pass


def days_between(a: date, b: date) -> int:
    """Signed calendar-day difference b - a; days_between(a, a) == 0."""
    return (b - a).days


def parse_iso_date(s: str) -> date:
    try:
        return date.fromisoformat(s)
    except ValueError as e:
        raise InvalidDate(str(e)) from None


class Sex(str, enum.Enum):
    MALE = "Male"
    FEMALE = "Female"
    UNKNOWN = "Unknown"


class Setting(str, enum.Enum):
    AMBULATORY = "Ambulatory"
    INPATIENT = "Inpatient"


class ProviderType(str, enum.Enum):
    INDIVIDUAL = "Individual"
    GROUP_PRACTICE = "GroupPractice"


class OpioidIngredient(str, enum.Enum):
    CODEINE = "Codeine"
    HYDROCODONE = "Hydrocodone"
    HYDROMORPHONE = "Hydromorphone"
    LEVORPHANOL = "Levorphanol"
    MEPERIDINE = "Meperidine"
    MORPHINE = "Morphine"
    OXYCODONE = "Oxycodone"
    OXYMORPHONE = "Oxymorphone"
    PENTAZOCINE = "Pentazocine"
    TRAMADOL = "Tramadol"
    FENTANYL = "Fentanyl"
    TAPENTADOL = "Tapentadol"
    NONE = "None"


@dataclass(frozen=True)
class StudyCalendar:
    """Pre / washout / post period calendar.

    The provider-profiling window equals the pre-implementation window.
    """

    pre_start: date = date(2011, 8, 22)
    pre_end: date = date(2014, 8, 21)
    post_start: date = date(2014, 10, 6)
    post_end: date = date(2015, 10, 5)

    def __post_init__(self):
        if not (self.pre_start <= self.pre_end):
            raise CalendarMisconfigured("pre_start must be <= pre_end")
        if not (self.post_start <= self.post_end):
            raise CalendarMisconfigured("post_start must be <= post_end")
        if not (self.pre_end < self.post_start):
            raise CalendarMisconfigured(
                "a non-empty washout interval must separate pre_end and post_start"
            )

    @property
    def profiling_start(self) -> date:
        return self.pre_start

    @property
    def profiling_end(self) -> date:
        return self.pre_end

    @classmethod
    def from_file(cls, path: str) -> "StudyCalendar":
        """Read a 4-line ``key=ISO-date`` override file.

        Accepted keys: pre_start, pre_end, post_start, post_end (the
        profiling window is pinned to the pre window and cannot be
        overridden independently).
        """
        values = {}
        with open(path, encoding="utf-8") as f:
            for raw in f:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, val = line.partition("=")
                key = key.strip()
                if key in ("profiling_start", "profiling_end"):
                    continue  # pinned to the pre window
                if key not in ("pre_start", "pre_end", "post_start", "post_end"):
                    raise UnknownColumn(f"unknown calendar key {key!r}")
                values[key] = parse_iso_date(val.strip())
        return cls(**values)


@dataclass(frozen=True)
class EnrollmentSpan:
    person_id: str
    start: date
    end: date


@dataclass(frozen=True)
class PharmacyClaim:
    person_id: str
    fill_date: date
    drug_code: str
    quantity: float
    days_supply: int | None = None


@dataclass(frozen=True)
class MedicalClaim:
    claim_id: str
    person_id: str
    provider_id: str
    provider_type: ProviderType
    cpt_code: str
    service_date: date
    admission_date: date | None
    discharge_date: date | None
    setting: Setting
    diagnoses: tuple[str, ...]


@dataclass(frozen=True)
class PersonDemographics:
    person_id: str
    birth_year: int
    sex: Sex


@dataclass(frozen=True)
class DrugCatalogEntry:
    drug_code: str
    opioid_ingredient: OpioidIngredient
    is_oral_analgesic_opioid: bool
    strength_mg_per_unit: float
    mme_factor: float


def normalize_dx(code: str) -> str:
    """Dot-free, uppercased ICD-9-CM code."""
    return code.replace(".", "").strip().upper()


def index_anchor_dates(claim: MedicalClaim) -> tuple[date, date]:
    """(early_anchor, late_anchor) for a procedure claim.

    early = admission or procedure date, whichever came first;
    late = discharge or procedure date, whichever came last.
    """
    early = claim.service_date
    if claim.admission_date is not None:
        early = min(claim.admission_date, claim.service_date)
    late = claim.service_date
    if claim.discharge_date is not None:
        late = max(claim.discharge_date, claim.service_date)
    return early, late


def merge_enrollment_spans(spans: list[EnrollmentSpan]) -> list[EnrollmentSpan]:
    """Merge overlapping or abutting (gap 0) spans for a single person.

    A gap of >= 1 day breaks continuity. Idempotent and order-independent.
    """
    if not spans:
        return []
    ordered = sorted(spans, key=lambda s: (s.start, s.end))
    merged = [ordered[0]]
    for span in ordered[1:]:
        last = merged[-1]
        if span.start <= last.end + timedelta(days=1):
            if span.end > last.end:
                merged[-1] = EnrollmentSpan(last.person_id, last.start, span.end)
        else:
            merged.append(span)
    return merged


@dataclass
class RejectedRow:
    filename: str
    line: int
    reason: str


ENROLLMENT_COLUMNS = ["person_id", "start", "end"]
PHARMACY_COLUMNS = ["person_id", "fill_date", "drug_code", "quantity", "days_supply"]
MEDICAL_COLUMNS = [
    "claim_id", "person_id", "provider_id", "provider_type", "cpt",
    "service_date", "admission_date", "discharge_date", "setting",
] + [f"dx{i}" for i in range(1, 11)]
PERSONS_COLUMNS = ["person_id", "birth_year", "sex"]
DRUG_CATALOG_COLUMNS = [
    "drug_code", "ingredient", "is_oral_analgesic_opioid",
    "strength_mg_per_unit", "mme_factor",
]

MAX_DIAGNOSES = 10


@dataclass
class ClaimsStore:
    """Immutable post-parse store, indexed by person and provider.

    All index lists are sorted canonically so downstream results do not
    depend on input row order.
    """

    calendar: StudyCalendar
    enrollment: dict[str, list[EnrollmentSpan]] = field(default_factory=dict)
    pharmacy: dict[str, list[PharmacyClaim]] = field(default_factory=dict)
    medical: dict[str, list[MedicalClaim]] = field(default_factory=dict)
    medical_by_provider: dict[str, list[MedicalClaim]] = field(default_factory=dict)
    demographics: dict[str, PersonDemographics] = field(default_factory=dict)
    catalog: dict[str, DrugCatalogEntry] = field(default_factory=dict)
    parsed_counts: dict[str, int] = field(default_factory=dict)
    rejected: list[RejectedRow] = field(default_factory=list)

    @property
    def rejected_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.rejected:
            counts[r.filename] = counts.get(r.filename, 0) + 1
        return counts

    def persons_with_medical_claims(self) -> list[str]:
        return sorted(self.medical)


def read_csv_rows(path: str, expected: list[str]):
    """(line number, row) for each non-blank data row of a CSV file.

    Raises UnknownColumn when the file is empty or its header is not
    ``expected``.
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise UnknownColumn(f"{path}: empty file, expected header {expected}")
        if [h.strip() for h in header] != expected:
            raise UnknownColumn(
                f"{path}: header {header} does not match expected {expected}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            yield lineno, row


def _build_store(
    calendar: StudyCalendar,
    enrollment_rows,
    pharmacy_rows,
    medical_rows,
    persons_rows,
    catalog_rows,
) -> ClaimsStore:
    store = ClaimsStore(calendar=calendar)
    raw_enrollment: dict[str, list[EnrollmentSpan]] = {}

    # The catalog comes first: a fill whose drug_code it lacks is rejected.
    n = 0
    for lineno, row in catalog_rows:
        n += 1
        try:
            if len(row) != len(DRUG_CATALOG_COLUMNS):
                raise ValueError(f"expected {len(DRUG_CATALOG_COLUMNS)} fields, got {len(row)}")
            code = row[0].strip()
            ingredient = OpioidIngredient(row[1].strip())
            flag = row[2].strip().lower()
            if flag not in ("true", "false", "1", "0"):
                raise ValueError(f"bad boolean {row[2]!r}")
            is_oral = flag in ("true", "1")
            strength = float(row[3]) if row[3].strip() else 0.0
            factor = float(row[4]) if row[4].strip() else 0.0
            if is_oral and (ingredient is OpioidIngredient.NONE or factor <= 0):
                raise ValueError("oral analgesic opioid requires an ingredient and mme_factor > 0")
            if ingredient is not OpioidIngredient.NONE and is_oral and strength <= 0:
                raise ValueError("opioid entries need positive strength")
            if code in store.catalog:
                raise ValueError(f"duplicate drug_code {code}")
            store.catalog[code] = DrugCatalogEntry(code, ingredient, is_oral, strength, factor)
        except (ValueError, InvalidDate) as e:
            store.rejected.append(RejectedRow("drug_catalog.csv", lineno, str(e)))
    store.parsed_counts["drug_catalog.csv"] = n - store.rejected_counts.get("drug_catalog.csv", 0)

    n = 0
    for lineno, row in enrollment_rows:
        n += 1
        try:
            if len(row) != len(ENROLLMENT_COLUMNS):
                raise ValueError(f"expected {len(ENROLLMENT_COLUMNS)} fields, got {len(row)}")
            pid = row[0].strip()
            start = parse_iso_date(row[1])
            end = parse_iso_date(row[2])
            if not pid:
                raise ValueError("empty person_id")
            if start > end:
                raise ValueError("span start after end")
            raw_enrollment.setdefault(pid, []).append(EnrollmentSpan(pid, start, end))
        except (ValueError, InvalidDate) as e:
            store.rejected.append(RejectedRow("enrollment.csv", lineno, str(e)))
    store.parsed_counts["enrollment.csv"] = n - store.rejected_counts.get("enrollment.csv", 0)

    n = 0
    for lineno, row in pharmacy_rows:
        n += 1
        try:
            if len(row) != len(PHARMACY_COLUMNS):
                raise ValueError(f"expected {len(PHARMACY_COLUMNS)} fields, got {len(row)}")
            pid = row[0].strip()
            fill = parse_iso_date(row[1])
            code = row[2].strip()
            quantity = float(row[3])
            if not pid or not code:
                raise ValueError("empty person_id or drug_code")
            if quantity <= 0:
                raise ValueError(f"quantity must be positive, got {row[3]}")
            if code not in store.catalog:
                raise ValueError(f"drug_code {code!r} is not in drug_catalog.csv")
            supply = int(row[4]) if row[4].strip() else None
            store.pharmacy.setdefault(pid, []).append(
                PharmacyClaim(pid, fill, code, quantity, supply)
            )
        except (ValueError, InvalidDate) as e:
            store.rejected.append(RejectedRow("pharmacy.csv", lineno, str(e)))
    store.parsed_counts["pharmacy.csv"] = n - store.rejected_counts.get("pharmacy.csv", 0)

    seen_claim_ids: set[str] = set()
    n = 0
    for lineno, row in medical_rows:
        n += 1
        try:
            if len(row) != len(MEDICAL_COLUMNS):
                raise ValueError(f"expected {len(MEDICAL_COLUMNS)} fields, got {len(row)}")
            claim_id = row[0].strip()
            if not claim_id:
                raise ValueError("empty claim_id")
            if claim_id in seen_claim_ids:
                raise ValueError(f"duplicate claim_id {claim_id}")
            pid = row[1].strip()
            provider_id = row[2].strip()
            provider_type = ProviderType(row[3].strip())
            cpt = row[4].strip()
            service = parse_iso_date(row[5])
            admission = parse_iso_date(row[6]) if row[6].strip() else None
            discharge = parse_iso_date(row[7]) if row[7].strip() else None
            setting = Setting(row[8].strip())
            if (setting is Setting.INPATIENT) != (discharge is not None):
                raise ValueError("setting=Inpatient iff discharge_date present")
            if admission is not None and admission > service:
                raise ValueError("admission_date after service_date")
            if discharge is not None and service > discharge:
                raise ValueError("service_date after discharge_date")
            if len(cpt) != 5:
                raise ValueError(f"cpt must be 5 characters, got {cpt!r}")
            dx = tuple(normalize_dx(c) for c in row[9:9 + MAX_DIAGNOSES] if c.strip())
            claim = MedicalClaim(
                claim_id, pid, provider_id, provider_type, cpt,
                service, admission, discharge, setting, dx,
            )
            seen_claim_ids.add(claim_id)
            store.medical.setdefault(pid, []).append(claim)
            store.medical_by_provider.setdefault(provider_id, []).append(claim)
        except (ValueError, InvalidDate) as e:
            store.rejected.append(RejectedRow("medical.csv", lineno, str(e)))
    store.parsed_counts["medical.csv"] = n - store.rejected_counts.get("medical.csv", 0)

    n = 0
    for lineno, row in persons_rows:
        n += 1
        try:
            if len(row) != len(PERSONS_COLUMNS):
                raise ValueError(f"expected {len(PERSONS_COLUMNS)} fields, got {len(row)}")
            pid = row[0].strip()
            birth_year = int(row[1])
            sex = Sex(row[2].strip())
            if not pid:
                raise ValueError("empty person_id")
            if not (1880 <= birth_year <= calendar.post_end.year):
                raise ValueError(f"implausible birth_year {birth_year}")
            if pid in store.demographics:
                raise ValueError(f"duplicate person_id {pid}")
            store.demographics[pid] = PersonDemographics(pid, birth_year, sex)
        except (ValueError, InvalidDate) as e:
            store.rejected.append(RejectedRow("persons.csv", lineno, str(e)))
    store.parsed_counts["persons.csv"] = n - store.rejected_counts.get("persons.csv", 0)

    # Canonical post-parse normalization: merged spans, sorted indexes.
    for pid, spans in raw_enrollment.items():
        store.enrollment[pid] = merge_enrollment_spans(spans)
    for pid in store.pharmacy:
        store.pharmacy[pid].sort(key=lambda c: (c.fill_date, c.drug_code, c.quantity))
    for pid in store.medical:
        store.medical[pid].sort(key=lambda c: (c.service_date, c.claim_id))
    for prov in store.medical_by_provider:
        store.medical_by_provider[prov].sort(key=lambda c: (c.service_date, c.claim_id))
    return store


def parse_inputs(input_dir: str, calendar: StudyCalendar | None = None) -> ClaimsStore:
    """Parse the five input CSVs under ``input_dir`` into a ClaimsStore.

    Rows failing validation are rejected and counted, never silently
    dropped; structural problems (missing file, wrong header) raise.
    """
    if calendar is None:
        calendar = StudyCalendar()
    paths = {
        name: os.path.join(input_dir, name)
        for name in ("enrollment.csv", "pharmacy.csv", "medical.csv",
                     "persons.csv", "drug_catalog.csv")
    }
    for name, p in paths.items():
        if not os.path.exists(p):
            raise FileNotFoundError(p)
    return _build_store(
        calendar,
        read_csv_rows(paths["enrollment.csv"], ENROLLMENT_COLUMNS),
        read_csv_rows(paths["pharmacy.csv"], PHARMACY_COLUMNS),
        read_csv_rows(paths["medical.csv"], MEDICAL_COLUMNS),
        read_csv_rows(paths["persons.csv"], PERSONS_COLUMNS),
        read_csv_rows(paths["drug_catalog.csv"], DRUG_CATALOG_COLUMNS),
    )


def store_from_records(
    calendar: StudyCalendar,
    enrollment: list[EnrollmentSpan],
    pharmacy: list[PharmacyClaim],
    medical: list[MedicalClaim],
    persons: list[PersonDemographics],
    catalog: list[DrugCatalogEntry],
) -> ClaimsStore:
    """Assemble a normalized store from in-memory records (no file I/O)."""
    store = ClaimsStore(calendar=calendar)
    raw: dict[str, list[EnrollmentSpan]] = {}
    for s in enrollment:
        raw.setdefault(s.person_id, []).append(s)
    for pid, spans in raw.items():
        store.enrollment[pid] = merge_enrollment_spans(spans)
    for c in pharmacy:
        store.pharmacy.setdefault(c.person_id, []).append(c)
    for c in medical:
        store.medical.setdefault(c.person_id, []).append(c)
        store.medical_by_provider.setdefault(c.provider_id, []).append(c)
    for d in persons:
        store.demographics[d.person_id] = d
    for e in catalog:
        store.catalog[e.drug_code] = e
    for pid in store.pharmacy:
        store.pharmacy[pid].sort(key=lambda c: (c.fill_date, c.drug_code, c.quantity))
    for pid in store.medical:
        store.medical[pid].sort(key=lambda c: (c.service_date, c.claim_id))
    for prov in store.medical_by_provider:
        store.medical_by_provider[prov].sort(key=lambda c: (c.service_date, c.claim_id))
    store.parsed_counts = {
        "enrollment.csv": len(enrollment),
        "pharmacy.csv": len(pharmacy),
        "medical.csv": len(medical),
        "persons.csv": len(persons),
        "drug_catalog.csv": len(catalog),
    }
    return store


def _fmt_num(x: float) -> str:
    return repr(int(x)) if float(x).is_integer() else repr(x)


def write_store(store: ClaimsStore, out_dir: str) -> list[str]:
    """Write the normalized store back to the five input CSVs.

    Round-trip contract: re-parsing the written files reproduces the
    normalized records exactly.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def _open(name, columns):
        path = os.path.join(out_dir, name)
        written.append(path)
        f = open(path, "w", newline="", encoding="utf-8")
        w = csv.writer(f)
        w.writerow(columns)
        return f, w

    f, w = _open("enrollment.csv", ENROLLMENT_COLUMNS)
    for pid in sorted(store.enrollment):
        for s in store.enrollment[pid]:
            w.writerow([s.person_id, s.start.isoformat(), s.end.isoformat()])
    f.close()

    f, w = _open("pharmacy.csv", PHARMACY_COLUMNS)
    for pid in sorted(store.pharmacy):
        for c in store.pharmacy[pid]:
            w.writerow([
                c.person_id, c.fill_date.isoformat(), c.drug_code,
                _fmt_num(c.quantity), "" if c.days_supply is None else c.days_supply,
            ])
    f.close()

    f, w = _open("medical.csv", MEDICAL_COLUMNS)
    for pid in sorted(store.medical):
        for c in store.medical[pid]:
            dx = list(c.diagnoses) + [""] * (MAX_DIAGNOSES - len(c.diagnoses))
            w.writerow([
                c.claim_id, c.person_id, c.provider_id, c.provider_type.value,
                c.cpt_code, c.service_date.isoformat(),
                "" if c.admission_date is None else c.admission_date.isoformat(),
                "" if c.discharge_date is None else c.discharge_date.isoformat(),
                c.setting.value, *dx,
            ])
    f.close()

    f, w = _open("persons.csv", PERSONS_COLUMNS)
    for pid in sorted(store.demographics):
        d = store.demographics[pid]
        w.writerow([d.person_id, d.birth_year, d.sex.value])
    f.close()

    f, w = _open("drug_catalog.csv", DRUG_CATALOG_COLUMNS)
    for code in sorted(store.catalog):
        e = store.catalog[code]
        w.writerow([
            e.drug_code, e.opioid_ingredient.value,
            "true" if e.is_oral_analgesic_opioid else "false",
            _fmt_num(e.strength_mg_per_unit), _fmt_num(e.mme_factor),
        ])
    f.close()
    return written
