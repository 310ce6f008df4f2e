"""Domain data model, calendar arithmetic, validated CSV ingestion, and
the one reader and writer of each file format the pipeline uses.

All dates are ``datetime.date``; every window rule downstream works in
whole calendar days, as :func:`days_between` counts them.
"""
from __future__ import annotations

import contextlib
import csv
import enum
import functools
import gc
import json
import operator
import os
from dataclasses import dataclass, field, fields, is_dataclass
from datetime import date, timedelta
from typing import Callable, NamedTuple, get_args, get_origin, get_type_hints


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


class CalendarMisconfigured(ClaimsError):
    pass


class MissingCatalogEntry(ClaimsError):
    """A fill in a queried window whose drug_code the catalog lacks."""


def gc_paused(fn: Callable) -> Callable:
    """``fn`` with Python's cyclic garbage collector disabled for each call.

    The records are NamedTuples, which the collector tracks for as long as
    they live, so building a store's worth of them sets off collections
    that traverse every record and find nothing to free. The condition:
    ``fn`` builds no reference cycles, or a fixed few that do not grow with
    its data, so reference counting frees what it drops and the rest waits
    for the first collection after the call. The caller's state is
    restored when ``fn`` returns or raises; called with the collector
    already disabled, the wrapper leaves it disabled, so wrapped functions
    nest.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


def days_between(a: date, b: date) -> int:
    """Signed calendar-day difference b - a; days_between(a, a) == 0."""
    return (b - a).days


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
        """Read pre_start, pre_end, post_start and post_end from a settings
        file (read_settings). The profiling window is the pre window, so
        profiling_start and profiling_end are unknown keys."""
        values, unknown = read_settings(path, cls, "calendar", "key=ISO-date")
        if unknown:
            lineno, key, _ = unknown[0]
            raise MalformedRow(path, lineno, f"unknown calendar key {key!r}")
        try:
            return cls(**values)
        except CalendarMisconfigured as e:
            raise CalendarMisconfigured(f"{path}: {e}") from None


@contextlib.contextmanager
def open_utf8(path: str, newline: str | None = None):
    """``path`` opened as UTF-8 text. A byte that does not decode is a MalformedRow
    naming its line, counted in the raw bytes (the decoder reads ahead in chunks)."""
    try:
        with open(path, encoding="utf-8", newline=newline) as f:
            yield f
    except UnicodeDecodeError as e:
        with open(path, "rb") as f:  # the first line where dropping and replacing bad bytes differ
            lineno = next(i for i, raw in enumerate(f, start=1)
                          if raw.decode("utf-8", "ignore") != raw.decode("utf-8", "replace"))
        raise MalformedRow(path, lineno, f"not UTF-8: {e.reason}") from None


def read_settings(path: str, cls, kind: str, form: str) -> tuple[dict, list]:
    """The ``key = value`` lines of ``path``: the values of keys that name
    an int, float or date field of dataclass ``cls``, each parsed by its
    field's declared type, and (line, key, text) for each other key.
    ``#`` starts a comment anywhere on a line; blank lines are skipped. A
    line without ``=`` (``form`` shows one), a ``kind`` key given twice or
    a value its type rejects is a MalformedRow naming the file and line.
    """
    parsers = {int: int, float: float, date: date.fromisoformat}
    types = {k: parsers[t] for k, t in get_type_hints(cls).items() if t in parsers}
    values, unknown, seen = {}, [], set()
    with open_utf8(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, text = (part.strip() for part in line.partition("="))
            if not sep:
                raise MalformedRow(path, lineno, f"expected {form}, got {line!r}")
            if key in seen:
                raise MalformedRow(path, lineno, f"{kind} key {key!r} given twice")
            seen.add(key)
            if key not in types:
                unknown.append((lineno, key, text))
                continue
            try:
                values[key] = types[key](text)
            except ValueError as e:
                raise MalformedRow(path, lineno, f"{key}: {e}") from None
    return values, unknown


class EnrollmentSpan(NamedTuple):
    person_id: str
    start: date
    end: date


class PharmacyClaim(NamedTuple):
    person_id: str
    fill_date: date
    drug_code: str
    quantity: float
    days_supply: int | None = None


class MedicalClaim(NamedTuple):
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


class PersonDemographics(NamedTuple):
    person_id: str
    birth_year: int
    sex: Sex


class DrugCatalogEntry(NamedTuple):
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


_SPAN_ORDER = operator.attrgetter("start", "end")
_CLAIM_ORDER = operator.attrgetter("service_date", "claim_id")


def _fill_order(c: PharmacyClaim) -> tuple:
    # A missing days_supply sorts before every count, and is never compared with one.
    return (c.fill_date, c.drug_code, c.quantity, c.days_supply is not None, c.days_supply or 0)


def merge_enrollment_spans(spans: list[EnrollmentSpan]) -> list[EnrollmentSpan]:
    """Merge overlapping or abutting (gap 0) spans for a single person.

    A gap of >= 1 day breaks continuity. Idempotent and order-independent.
    """
    if not spans:
        return []
    ordered = sorted(spans, key=_SPAN_ORDER)
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


MAX_DIAGNOSES = 10


@dataclass
class ClaimsStore:
    """The records of one run, indexed by person (catalog entries by drug
    code), as store_from_records builds them; parse_inputs then sets
    ``rejected``. The records are immutable; the store and its lists are
    not, and no step of the pipeline changes them after they are built.

    All index lists are sorted canonically so downstream results do not
    depend on input row order.
    """

    enrollment: dict[str, list[EnrollmentSpan]] = field(default_factory=dict)
    pharmacy: dict[str, list[PharmacyClaim]] = field(default_factory=dict)
    medical: dict[str, list[MedicalClaim]] = field(default_factory=dict)
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


def opioid_fills_in_window(
    store: ClaimsStore, person_id: str, anchor: date, lo: int, hi: int
) -> list[tuple[int, PharmacyClaim, DrugCatalogEntry]]:
    """(offset, fill, entry) for the person's oral-analgesic opioid fills
    with lo <= fill_date - anchor <= hi, in stored order.

    Exposure, the opioid-naive check and the outcomes all use this one
    rule. An uncatalogued fill in the window raises MissingCatalogEntry.
    The scan stops at the first fill past ``hi``: store_from_records keeps
    each person's fills in date order, so no later fill is in the window.
    """
    out = []
    for fill in store.pharmacy.get(person_id, ()):
        offset = (fill.fill_date - anchor).days
        if offset > hi:
            break
        if offset < lo:
            continue
        entry = store.catalog.get(fill.drug_code)
        if entry is None:
            raise MissingCatalogEntry(fill.drug_code)
        if entry.is_oral_analgesic_opioid:
            out.append((offset, fill, entry))
    return out


def read_csv_rows(path: str, expected: list[str]):
    """(line number, row) for each non-blank data row of a CSV file, by the
    line the row starts on.

    Raises UnknownColumn when the file is empty or its header is not
    ``expected``, and MalformedRow for a row the strict csv reader cannot
    read, such as a quote left open, even to the end of the file.
    """
    with open_utf8(path, newline="") as f:
        reader = csv.reader(f, strict=True)
        done = 0  # lines read before the row being read
        try:
            header = next(reader, None)
            if header is None:
                raise UnknownColumn(f"{path}: empty file, expected header {expected}")
            if [h.strip() for h in header] != expected:
                raise UnknownColumn(f"{path}: header {header} does not match expected {expected}")
            done = reader.line_num
            for row in reader:
                if row and any(c.strip() for c in row):
                    yield done + 1, row
                done = reader.line_num
        except csv.Error as e:
            raise MalformedRow(path, done + 1, str(e)) from None


def check_field_count(row: list[str], columns: list[str]) -> None:
    if len(row) != len(columns):
        raise ValueError(f"expected {len(columns)} fields, got {len(row)}")


def read_reference_csv(path: str, columns: list[str], parse) -> list:
    """``parse(row)`` for each data row of a reference or intermediate file.

    The first row with the wrong field count, an empty field or a bad
    value raises MalformedRow naming the file and line.
    """
    out = []
    for lineno, row in read_csv_rows(path, columns):
        try:
            check_field_count(row, columns)
            empty = [c for c, v in zip(columns, row) if not v.strip()]
            if empty:
                raise ValueError(f"empty {empty[0]}")
            out.append(parse(row))
        except ValueError as e:
            raise MalformedRow(path, lineno, str(e)) from None
    return out


class TextMemo(dict):
    """A writer's per-call memo of field text, each made once per distinct
    value: "" for None, a date's ISO form, an enum member's value, and a
    number as the input files and the analysis table write it: whole values
    without a fractional part, others in the shortest form that reads back
    exactly. Equal numbers have one text (0.0 and -0.0 are both "0"); a NaN
    equals no key, so each NaN is formatted on its own."""

    def __missing__(self, key):
        if key is None:
            text = ""
        elif isinstance(key, date):
            text = key.isoformat()
        elif isinstance(key, enum.Enum):
            text = key.value
        elif float(key).is_integer():
            text = repr(int(key))
        else:
            text = repr(float(key))
        self[key] = text
        return text


def write_csv(path: str, columns: list[str], rows) -> None:
    """The header ``columns``, then ``rows``: UTF-8, the csv module's default dialect."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(columns)
        w.writerows(rows)


def write_json(path: str, data) -> None:
    """Indented by 2, keys sorted, with a trailing newline."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")


def conforms(value, hint) -> bool:
    """Whether the JSON ``value`` is what write_json makes of a value of type
    ``hint``: a dataclass is an object of exactly its compared fields, each
    of its declared type; ``dict[str, T]`` is an object and ``tuple[T, ...]``
    an array; a float is any JSON number, and a bool, int or str that type
    exactly (so ``true`` is no int)."""
    if is_dataclass(hint):
        types = get_type_hints(hint)
        names = {f.name for f in fields(hint) if f.compare}
        return (isinstance(value, dict) and set(value) == names
                and all(conforms(value[k], types[k]) for k in names))
    origin, args = get_origin(hint), get_args(hint)
    if origin is dict:
        return isinstance(value, dict) and all(conforms(v, args[1]) for v in value.values())
    if origin is tuple:
        return isinstance(value, list) and all(conforms(v, args[0]) for v in value)
    return type(value) in ((int, float) if hint is float else (hint,))


def load_json(path: str, valid: Callable, expected: str):
    """A JSON file of the run directory. One that does not parse, or whose
    data ``valid`` rejects, is a MalformedRow naming the file."""
    try:
        with open_utf8(path) as f:
            data = json.load(f)
    except json.JSONDecodeError as e:
        raise MalformedRow(path, e.lineno, f"not JSON: {e.msg}") from None
    if not valid(data):
        raise MalformedRow(path, 1, f"expected {expected}")
    return data


# Row parsers get a row with the right field count, the calendar and the
# drug codes accepted so far; a bad value raises ValueError.

def _parse_catalog(row, calendar, drug_codes) -> DrugCatalogEntry:
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
    return DrugCatalogEntry(code, ingredient, is_oral, strength, factor)


def _parse_enrollment(row, calendar, drug_codes) -> EnrollmentSpan:
    pid = row[0].strip()
    start = date.fromisoformat(row[1])
    end = date.fromisoformat(row[2])
    if not pid:
        raise ValueError("empty person_id")
    if start > end:
        raise ValueError("span start after end")
    return EnrollmentSpan(pid, start, end)


def _parse_pharmacy(row, calendar, drug_codes) -> PharmacyClaim:
    pid = row[0].strip()
    fill = date.fromisoformat(row[1])
    code = row[2].strip()
    quantity = float(row[3])
    if not pid or not code:
        raise ValueError("empty person_id or drug_code")
    if quantity <= 0:
        raise ValueError(f"quantity must be positive, got {row[3]}")
    if code not in drug_codes:
        raise ValueError(f"drug_code {code!r} is not in drug_catalog.csv")
    supply = int(row[4]) if row[4].strip() else None
    return PharmacyClaim(pid, fill, code, quantity, supply)


def _parse_medical(row, calendar, drug_codes) -> MedicalClaim:
    claim_id = row[0].strip()
    if not claim_id:
        raise ValueError("empty claim_id")
    pid = row[1].strip()
    provider_id = row[2].strip()
    provider_type = ProviderType(row[3].strip())
    cpt = row[4].strip()
    service = date.fromisoformat(row[5])
    admission = date.fromisoformat(row[6]) if row[6].strip() else None
    discharge = date.fromisoformat(row[7]) if row[7].strip() else None
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
    return MedicalClaim(
        claim_id, pid, provider_id, provider_type, cpt,
        service, admission, discharge, setting, dx,
    )


def _parse_persons(row, calendar, drug_codes) -> PersonDemographics:
    pid = row[0].strip()
    birth_year = int(row[1])
    sex = Sex(row[2].strip())
    if not pid:
        raise ValueError("empty person_id")
    if not (1880 <= birth_year <= calendar.post_end.year):
        raise ValueError(f"implausible birth_year {birth_year}")
    return PersonDemographics(pid, birth_year, sex)


class InputFile(NamedTuple):
    """One input CSV: header, row parser, row formatter (given the record
    and the writer's TextMemo), the ClaimsStore field of its records, and
    whether its first column is a unique key."""

    name: str
    columns: list[str]
    parse: Callable
    format: Callable
    index: str
    unique: bool = False


# The catalog comes first: a fill whose drug_code it lacks is rejected.
INPUT_FILES = [
    InputFile(
        "drug_catalog.csv",
        ["drug_code", "ingredient", "is_oral_analgesic_opioid",
         "strength_mg_per_unit", "mme_factor"],
        _parse_catalog,
        lambda e, text: [e.drug_code, text[e.opioid_ingredient],
                         "true" if e.is_oral_analgesic_opioid else "false",
                         text[e.strength_mg_per_unit], text[e.mme_factor]],
        "catalog", unique=True,
    ),
    InputFile(
        "enrollment.csv", ["person_id", "start", "end"], _parse_enrollment,
        lambda s, text: [s.person_id, text[s.start], text[s.end]],
        "enrollment",
    ),
    InputFile(
        "pharmacy.csv", ["person_id", "fill_date", "drug_code", "quantity", "days_supply"],
        _parse_pharmacy,
        lambda c, text: [c.person_id, text[c.fill_date], c.drug_code, text[c.quantity],
                         text[c.days_supply]],
        "pharmacy",
    ),
    InputFile(
        "medical.csv",
        ["claim_id", "person_id", "provider_id", "provider_type", "cpt",
         "service_date", "admission_date", "discharge_date", "setting"]
        + [f"dx{i}" for i in range(1, MAX_DIAGNOSES + 1)],
        _parse_medical,
        lambda c, text: [
            c.claim_id, c.person_id, c.provider_id, text[c.provider_type],
            c.cpt_code, text[c.service_date], text[c.admission_date], text[c.discharge_date],
            text[c.setting], *c.diagnoses, *[""] * (MAX_DIAGNOSES - len(c.diagnoses)),
        ],
        "medical", unique=True,
    ),
    InputFile(
        "persons.csv", ["person_id", "birth_year", "sex"], _parse_persons,
        lambda d, text: [d.person_id, d.birth_year, text[d.sex]],
        "demographics", unique=True,
    ),
]


@gc_paused
def parse_inputs(input_dir: str, calendar: StudyCalendar | None = None) -> ClaimsStore:
    """Parse the five input CSVs under ``input_dir`` into a ClaimsStore.

    Rows failing validation are rejected and counted, never silently
    dropped; structural problems (missing file, wrong header) raise.
    """
    if calendar is None:
        calendar = StudyCalendar()
    paths = [os.path.join(input_dir, f.name) for f in INPUT_FILES]
    for p in paths:
        if not os.path.exists(p):
            raise FileNotFoundError(p)
    records: dict[str, list] = {}
    rejected: list[RejectedRow] = []
    keys = {f.name: set() for f in INPUT_FILES}   # accepted first columns
    for f, path in zip(INPUT_FILES, paths):
        accepted = records[f.name] = []
        for lineno, row in read_csv_rows(path, f.columns):
            try:
                check_field_count(row, f.columns)
                record = f.parse(row, calendar, keys["drug_catalog.csv"])
                if f.unique:
                    key = row[0].strip()
                    if key in keys[f.name]:
                        raise ValueError(f"duplicate {f.columns[0]} {key}")
                    keys[f.name].add(key)
                accepted.append(record)
            except ValueError as e:
                rejected.append(RejectedRow(f.name, lineno, str(e)))
    store = store_from_records(
        records["enrollment.csv"], records["pharmacy.csv"], records["medical.csv"],
        records["persons.csv"], records["drug_catalog.csv"],
    )
    store.rejected = rejected
    return store


def store_from_records(
    enrollment: list[EnrollmentSpan],
    pharmacy: list[PharmacyClaim],
    medical: list[MedicalClaim],
    persons: list[PersonDemographics],
    catalog: list[DrugCatalogEntry],
) -> ClaimsStore:
    """The normalized store of parsed or generated records.

    Spans are merged, claims grouped by person and sorted canonically
    (fills by date, drug code, quantity and days supply; medical claims by
    service date and claim id), so the store does not depend on the order
    of the input lists. ``parsed_counts`` holds each list's length.
    """
    store = ClaimsStore()
    for s in enrollment:
        store.enrollment.setdefault(s.person_id, []).append(s)
    for c in pharmacy:
        store.pharmacy.setdefault(c.person_id, []).append(c)
    for c in medical:
        store.medical.setdefault(c.person_id, []).append(c)
    # most people have one span and few claims: a list of one is already in order
    for pid, spans in store.enrollment.items():
        if len(spans) > 1:
            store.enrollment[pid] = merge_enrollment_spans(spans)
    for fills in store.pharmacy.values():
        if len(fills) > 1:
            fills.sort(key=_fill_order)
    for claims in store.medical.values():
        if len(claims) > 1:
            claims.sort(key=_CLAIM_ORDER)
    store.demographics = {d.person_id: d for d in persons}
    store.catalog = {e.drug_code: e for e in catalog}
    store.parsed_counts = {
        "enrollment.csv": len(enrollment),
        "pharmacy.csv": len(pharmacy),
        "medical.csv": len(medical),
        "persons.csv": len(persons),
        "drug_catalog.csv": len(catalog),
    }
    return store


def write_store(store: ClaimsStore, out_dir: str) -> list[str]:
    """Write the normalized store back to the five input CSVs.

    Round-trip contract: re-parsing the written files reproduces the
    normalized records exactly.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    text = TextMemo()
    for f in INPUT_FILES:
        path = os.path.join(out_dir, f.name)
        index = getattr(store, f.index)
        # index[key] is a person's list of records, or one record
        write_csv(path, f.columns, (
            f.format(r, text) for key in sorted(index)
            for r in (index[key] if isinstance(index[key], list) else [index[key]])
        ))
        written.append(path)
    return written
