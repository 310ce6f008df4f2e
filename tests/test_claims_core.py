import csv
import dataclasses
import gc
import os
import tempfile
from datetime import date, timedelta

import pytest
from hypothesis import given, strategies as st

from rxdid import claims_core, cohort_builder, prescriber_profile, study_analysis, synthgen
from rxdid.measures import ComorbidityMap
from rxdid.claims_core import (
    DrugCatalogEntry,
    EnrollmentSpan,
    MedicalClaim,
    MissingCatalogEntry,
    OpioidIngredient,
    PersonDemographics,
    PharmacyClaim,
    ProviderType,
    RejectedRow,
    Setting,
    Sex,
    StudyCalendar,
    CalendarMisconfigured,
    MalformedRow,
    UnknownColumn,
    days_between,
    index_anchor_dates,
    merge_enrollment_spans,
    opioid_fills_in_window,
    parse_inputs,
    read_settings,
    store_from_records,
    write_store,
)


def test_days_between_examples():
    assert days_between(date(2014, 8, 22), date(2014, 10, 6)) == 45
    assert days_between(date(2013, 5, 10), date(2013, 8, 20)) == 102
    assert days_between(date(2012, 2, 28), date(2012, 3, 1)) == 2  # leap year
    assert days_between(date(2013, 1, 1), date(2013, 1, 1)) == 0
    assert days_between(date(2013, 1, 2), date(2013, 1, 1)) == -1


def _claim(service, admission=None, discharge=None):
    setting = Setting.INPATIENT if discharge else Setting.AMBULATORY
    return MedicalClaim(
        "c1", "p1", "dr1", ProviderType.INDIVIDUAL, "47562",
        service, admission, discharge, setting, (),
    )


def test_anchor_dates_discharge_later():
    _, late = index_anchor_dates(_claim(date(2014, 3, 1), discharge=date(2014, 3, 4)))
    assert late == date(2014, 3, 4)


def test_anchor_dates_ambulatory():
    assert index_anchor_dates(_claim(date(2013, 7, 7))) == (date(2013, 7, 7), date(2013, 7, 7))


def test_anchor_dates_admission_discharge():
    claim = _claim(date(2014, 3, 2), admission=date(2014, 3, 1), discharge=date(2014, 3, 5))
    assert index_anchor_dates(claim) == (date(2014, 3, 1), date(2014, 3, 5))


def test_calendar_defaults():
    cal = StudyCalendar()
    assert cal.pre_start == date(2011, 8, 22)
    assert cal.pre_end == date(2014, 8, 21)
    assert cal.post_start == date(2014, 10, 6)
    assert cal.post_end == date(2015, 10, 5)
    assert cal.profiling_start == cal.pre_start
    assert cal.profiling_end == cal.pre_end


def test_calendar_requires_washout():
    with pytest.raises(CalendarMisconfigured):
        StudyCalendar(pre_end=date(2014, 10, 6), post_start=date(2014, 10, 6))


@dataclasses.dataclass(frozen=True)
class _Settings:
    count: int = 0
    rate: float = 0.5
    day: date = date(2014, 1, 1)
    names: tuple = ()


def test_read_settings_parses_each_field_by_its_type(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text(
        "# a comment line\n"
        "\n"
        "count = 7   # trailing comment\n"
        "  rate=0.25\n"
        "day = 2013-02-03#no space before it\n"
        "names = a,b\n"
        "extra = 3\n"
    )
    values, unknown = read_settings(str(path), _Settings, "test", "key = value")
    assert values == {"count": 7, "rate": 0.25, "day": date(2013, 2, 3)}
    assert type(values["count"]) is int and type(values["rate"]) is float
    # a field of another type is no settings field
    assert unknown == [(6, "names", "a,b"), (7, "extra", "3")]


@pytest.mark.parametrize("text, message", [
    ("count = 1\ncount = 2\n", ":2: test key 'count' given twice"),
    ("extra = 1\n\nextra = 1\n", ":3: test key 'extra' given twice"),
    ("count 1\n", ":1: expected key = value, got 'count 1'"),
    ("# header\ncount = 1.5\n", ":2: count: invalid literal for int()"),
    ("rate = half\n", ":1: rate: could not convert string to float"),
    ("day = 2014-02-30\n", ":1: day: day is out of range for month"),
    ("day = # dateless\n", ":1: day: Invalid isoformat string: ''"),
])
def test_read_settings_names_the_file_and_line_of_a_bad_line(tmp_path, text, message):
    path = tmp_path / "s.txt"
    path.write_text(text)
    with pytest.raises(MalformedRow) as raised:
        read_settings(str(path), _Settings, "test", "key = value")
    assert str(raised.value).startswith(f"{path}{message}")


def test_abutting_spans_merge():
    spans = [
        EnrollmentSpan("p1", date(2013, 1, 1), date(2013, 6, 30)),
        EnrollmentSpan("p1", date(2013, 7, 1), date(2014, 1, 1)),
    ]
    merged = merge_enrollment_spans(spans)
    assert merged == [EnrollmentSpan("p1", date(2013, 1, 1), date(2014, 1, 1))]


def test_gap_of_one_day_breaks_continuity():
    spans = [
        EnrollmentSpan("p1", date(2013, 1, 1), date(2013, 6, 30)),
        EnrollmentSpan("p1", date(2013, 7, 2), date(2014, 1, 1)),
    ]
    assert len(merge_enrollment_spans(spans)) == 2


@st.composite
def span_lists(draw):
    base = date(2013, 1, 1)
    n = draw(st.integers(1, 8))
    spans = []
    for _ in range(n):
        a = draw(st.integers(0, 400))
        b = draw(st.integers(0, 400))
        lo, hi = min(a, b), max(a, b)
        from datetime import timedelta
        spans.append(EnrollmentSpan("p", base + timedelta(days=lo), base + timedelta(days=hi)))
    return spans


@given(span_lists(), st.randoms())
def test_merge_idempotent_and_order_independent(spans, rnd):
    merged = merge_enrollment_spans(spans)
    assert merge_enrollment_spans(merged) == merged
    shuffled = list(spans)
    rnd.shuffle(shuffled)
    assert merge_enrollment_spans(shuffled) == merged
    # merged spans are non-overlapping and separated by >= 1 day gaps
    for a, b in zip(merged, merged[1:]):
        assert days_between(a.end, b.start) >= 2


PEOPLE = ["p1", "p2", "p3"]
FEW_DAYS = st.sampled_from([date(2013, 1, 1), date(2013, 1, 2)])


@st.composite
def record_lists(draw):
    """Records that tie often: few people, days, codes and quantities; fills
    that differ only in days_supply; claims that differ only in claim_id."""
    spans = [EnrollmentSpan(p, a, a + timedelta(days=n))
             for p, a, n in draw(st.lists(st.tuples(
                 st.sampled_from(PEOPLE), FEW_DAYS, st.integers(0, 3)), max_size=8))]
    fills = [PharmacyClaim(p, d, code, q, supply)
             for p, d, code, q, supply in draw(st.lists(st.tuples(
                 st.sampled_from(PEOPLE), FEW_DAYS, st.sampled_from(["HYD5", "OXY5"]),
                 st.sampled_from([10.0, 20.0]), st.sampled_from([None, 0, 5, 7])),
                 max_size=12))]
    claims = [MedicalClaim(f"c{i:03d}", p, "dr1", ProviderType.INDIVIDUAL, "47562", d,
                           None, None, Setting.AMBULATORY, ())
              for i, (p, d) in enumerate(draw(st.lists(st.tuples(
                  st.sampled_from(PEOPLE), FEW_DAYS), max_size=8)))]
    persons = [PersonDemographics(p, 1960, Sex.FEMALE) for p in PEOPLE]
    catalog = [DrugCatalogEntry("HYD5", OpioidIngredient.HYDROCODONE, True, 5.0, 1.0),
               DrugCatalogEntry("OXY5", OpioidIngredient.OXYCODONE, True, 5.0, 1.5)]
    return [spans, fills, claims, persons, catalog]


def _written(records, out_dir) -> dict[str, bytes]:
    write_store(store_from_records(*records), out_dir)
    return {name: open(os.path.join(out_dir, name), "rb").read()
            for name in sorted(os.listdir(out_dir))}


@given(record_lists(), st.randoms())
def test_written_store_does_not_depend_on_input_order(records, rnd):
    shuffled = [rnd.sample(listed, len(listed)) for listed in records]
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        assert _written(shuffled, b) == _written(records, a)


def _write(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


@pytest.fixture
def input_dir(tmp_path):
    d = tmp_path / "inputs"
    d.mkdir()
    _write(d / "enrollment.csv", ["person_id", "start", "end"], [
        ["p1", "2013-01-01", "2013-06-30"],
        ["p1", "2013-07-01", "2014-01-01"],
        ["p2", "2013-01-01", "2013-02-01"],
    ])
    _write(d / "pharmacy.csv",
           ["person_id", "fill_date", "drug_code", "quantity", "days_supply"], [
        ["p1", "2013-02-03", "HYD5", "40", "5"],
        ["p1", "2013-02-20", "HYD5", "-5", ""],   # rejected: bad quantity
        ["p2", "2013-01-15", "OXY5", "60", ""],
    ])
    med_header = ["claim_id", "person_id", "provider_id", "provider_type", "cpt",
                  "service_date", "admission_date", "discharge_date", "setting"] + \
                 [f"dx{i}" for i in range(1, 11)]
    _write(d / "medical.csv", med_header, [
        ["c1", "p1", "dr1", "Individual", "47562", "2013-02-01", "", "", "Ambulatory"] + [""] * 10,
        ["c2", "p2", "dr1", "Individual", "27447", "2013-01-10", "2013-01-10", "", "Inpatient"] + [""] * 10,  # rejected
        ["c3", "p2", "dr2", "GroupPractice", "27130", "2013-01-12", "2013-01-12", "2013-01-15", "Inpatient", "820.21"] + [""] * 9,
    ])
    _write(d / "persons.csv", ["person_id", "birth_year", "sex"], [
        ["p1", "1960", "Female"],
        ["p2", "1950", "Male"],
    ])
    _write(d / "drug_catalog.csv",
           ["drug_code", "ingredient", "is_oral_analgesic_opioid",
            "strength_mg_per_unit", "mme_factor"], [
        ["HYD5", "Hydrocodone", "true", "5", "1"],
        ["OXY5", "Oxycodone", "true", "5", "1.5"],
    ])
    return str(d)


def test_parse_merges_and_rejects(input_dir):
    store = parse_inputs(input_dir)
    assert store.enrollment["p1"] == [
        EnrollmentSpan("p1", date(2013, 1, 1), date(2014, 1, 1))
    ]
    assert store.parsed_counts["pharmacy.csv"] == 2
    assert store.rejected_counts == {"pharmacy.csv": 1, "medical.csv": 1}
    reasons = {(r.filename, r.line) for r in store.rejected}
    assert ("pharmacy.csv", 3) in reasons
    assert ("medical.csv", 3) in reasons  # inpatient without discharge_date
    # diagnoses normalized dot-free
    assert store.medical["p2"][0].diagnoses == ("82021",)


@pytest.mark.parametrize("blank", ["\n", ",,,,\n", " , ,\n"])
def test_blank_line_inside_pharmacy_is_skipped_not_rejected(input_dir, blank):
    expected = parse_inputs(input_dir)
    path = os.path.join(input_dir, "pharmacy.csv")
    with open(path, newline="") as f:
        header, first, *rest = f.readlines()
    with open(path, "w", newline="") as f:
        f.writelines([header, first, blank, *rest])
    store = parse_inputs(input_dir)
    assert store.pharmacy == expected.pharmacy
    assert store.parsed_counts == expected.parsed_counts
    # the bad-quantity row keeps its own line number, one further down
    assert [(r.filename, r.line) for r in store.rejected if r.filename == "pharmacy.csv"] == [
        ("pharmacy.csv", 4)]


def test_parse_accounting_identity(input_dir):
    store = parse_inputs(input_dir)
    # parsed + rejected = total data rows per file
    totals = {"enrollment.csv": 3, "pharmacy.csv": 3, "medical.csv": 3,
              "persons.csv": 2, "drug_catalog.csv": 2}
    for name, total in totals.items():
        assert store.parsed_counts[name] + store.rejected_counts.get(name, 0) == total


def test_round_trip(input_dir, tmp_path):
    store = parse_inputs(input_dir)
    out = tmp_path / "rt"
    write_store(store, str(out))
    store2 = parse_inputs(str(out))
    assert store2.enrollment == store.enrollment
    assert store2.pharmacy == store.pharmacy
    assert store2.medical == store.medical
    assert store2.demographics == store.demographics
    assert store2.catalog == store.catalog
    assert not store2.rejected


def test_unknown_column_raises(tmp_path, input_dir):
    bad = tmp_path / "bad"
    bad.mkdir()
    for name in os.listdir(input_dir):
        data = open(os.path.join(input_dir, name)).read()
        (bad / name).write_text(data)
    (bad / "persons.csv").write_text("person_id,birthyear,sex\np1,1960,Male\n")
    with pytest.raises(UnknownColumn):
        parse_inputs(str(bad))


def test_duplicate_claim_id_rejected(input_dir):
    with open(os.path.join(input_dir, "medical.csv"), "a", newline="") as f:
        w = csv.writer(f)
        w.writerow(["c1", "p1", "dr1", "Individual", "47562", "2013-03-01",
                    "", "", "Ambulatory"] + [""] * 10)
    store = parse_inputs(input_dir)
    assert any("duplicate claim_id" in r.reason for r in store.rejected)


def test_unknown_drug_code_rejected(input_dir):
    with open(os.path.join(input_dir, "pharmacy.csv"), "a", newline="") as f:
        csv.writer(f).writerow(["p2", "2013-01-20", "ZZZ9", "10", ""])
    store = parse_inputs(input_dir)
    assert [(r.line, r.reason) for r in store.rejected if r.filename == "pharmacy.csv"] == [
        (3, "quantity must be positive, got -5"),
        (5, "drug_code 'ZZZ9' is not in drug_catalog.csv"),
    ]
    assert all(c.drug_code != "ZZZ9" for c in store.pharmacy["p2"])
    assert store.parsed_counts["pharmacy.csv"] == 2


@pytest.mark.parametrize("calendar", [
    StudyCalendar(),
    StudyCalendar(date(2091, 1, 1), date(2093, 12, 31), date(2094, 3, 1), date(2095, 2, 28)),
])
def test_birth_year_bounded_by_calendar_not_wall_clock(input_dir, calendar):
    # the upper bound is the calendar's last year, so the same inputs parse
    # the same way on any day
    last = calendar.post_end.year
    with open(os.path.join(input_dir, "persons.csv"), "a", newline="") as f:
        csv.writer(f).writerows([["p3", str(last), "Female"], ["p4", str(last + 1), "Male"]])
    store = parse_inputs(input_dir, calendar)
    assert store.demographics["p3"].birth_year == last
    assert "p4" not in store.demographics
    assert [r.line for r in store.rejected
            if r.filename == "persons.csv" and "birth_year" in r.reason] == [5]


# One valid row per input file, appended after the fixture's rows; each
# case below breaks one rule of that file's row parser in one cell.
VALID_ROWS = {
    "drug_catalog.csv": ["COD3", "Codeine", "true", "30", "0.15"],
    "enrollment.csv": ["p3", "2013-01-01", "2013-12-31"],
    "pharmacy.csv": ["p2", "2013-03-01", "OXY5", "20", "4"],
    "medical.csv": ["c4", "p2", "dr2", "GroupPractice", "27130", "2013-05-02",
                    "2013-05-01", "2013-05-04", "Inpatient", "715.15"] + [""] * 9,
    "persons.csv": ["p3", "1970", "Female"],
}

_OPIOID_RULE = "oral analgesic opioid requires an ingredient and mme_factor > 0"
ROW_RULES = [
    ("drug_catalog.csv", None, None, "expected 5 fields, got 4"),
    ("drug_catalog.csv", "ingredient", "Heroin", "'Heroin' is not a valid OpioidIngredient"),
    ("drug_catalog.csv", "is_oral_analgesic_opioid", "yes", "bad boolean 'yes'"),
    ("drug_catalog.csv", "strength_mg_per_unit", "x", "could not convert string to float: 'x'"),
    ("drug_catalog.csv", "mme_factor", "x", "could not convert string to float: 'x'"),
    ("drug_catalog.csv", "mme_factor", "0", _OPIOID_RULE),
    ("drug_catalog.csv", "ingredient", "None", _OPIOID_RULE),
    ("drug_catalog.csv", "strength_mg_per_unit", "0", "opioid entries need positive strength"),
    ("drug_catalog.csv", "drug_code", "HYD5", "duplicate drug_code HYD5"),
    ("enrollment.csv", None, None, "expected 3 fields, got 2"),
    ("enrollment.csv", "start", "2013-02-30", "day is out of range for month"),
    ("enrollment.csv", "end", "someday", "Invalid isoformat string: 'someday'"),
    ("enrollment.csv", "person_id", "", "empty person_id"),
    ("enrollment.csv", "start", "2014-01-01", "span start after end"),
    ("pharmacy.csv", None, None, "expected 5 fields, got 4"),
    ("pharmacy.csv", "fill_date", "someday", "Invalid isoformat string: 'someday'"),
    ("pharmacy.csv", "quantity", "x", "could not convert string to float: 'x'"),
    ("pharmacy.csv", "person_id", "", "empty person_id or drug_code"),
    ("pharmacy.csv", "drug_code", "", "empty person_id or drug_code"),
    ("pharmacy.csv", "quantity", "0", "quantity must be positive, got 0"),
    ("pharmacy.csv", "drug_code", "ZZZ9", "drug_code 'ZZZ9' is not in drug_catalog.csv"),
    ("pharmacy.csv", "days_supply", "x", "invalid literal for int() with base 10: 'x'"),
    ("medical.csv", None, None, "expected 19 fields, got 18"),
    ("medical.csv", "claim_id", "", "empty claim_id"),
    ("medical.csv", "claim_id", "c1", "duplicate claim_id c1"),
    ("medical.csv", "provider_type", "Solo", "'Solo' is not a valid ProviderType"),
    ("medical.csv", "service_date", "someday", "Invalid isoformat string: 'someday'"),
    ("medical.csv", "admission_date", "someday", "Invalid isoformat string: 'someday'"),
    ("medical.csv", "discharge_date", "someday", "Invalid isoformat string: 'someday'"),
    ("medical.csv", "setting", "Clinic", "'Clinic' is not a valid Setting"),
    ("medical.csv", "setting", "Ambulatory", "setting=Inpatient iff discharge_date present"),
    ("medical.csv", "admission_date", "2013-05-03", "admission_date after service_date"),
    ("medical.csv", "discharge_date", "2013-05-01", "service_date after discharge_date"),
    ("medical.csv", "cpt", "2713", "cpt must be 5 characters, got '2713'"),
    ("persons.csv", None, None, "expected 3 fields, got 2"),
    ("persons.csv", "birth_year", "x", "invalid literal for int() with base 10: 'x'"),
    ("persons.csv", "sex", "X", "'X' is not a valid Sex"),
    ("persons.csv", "person_id", "", "empty person_id"),
    ("persons.csv", "birth_year", "1870", "implausible birth_year 1870"),
    ("persons.csv", "person_id", "p1", "duplicate person_id p1"),
]


def _append_row(input_dir, name, row) -> int:
    """Append ``row`` to an input file; returns its line number."""
    path = os.path.join(input_dir, name)
    with open(path, newline="") as f:
        line = sum(1 for _ in f) + 1
    with open(path, "a", newline="") as f:
        csv.writer(f).writerow(row)
    return line


def test_valid_rows_parse(input_dir):
    before = parse_inputs(input_dir)
    for name, row in VALID_ROWS.items():
        _append_row(input_dir, name, row)
    store = parse_inputs(input_dir)
    assert store.rejected == before.rejected
    for name in VALID_ROWS:
        assert store.parsed_counts[name] == before.parsed_counts[name] + 1


@pytest.mark.parametrize(
    "name, column, value, reason", ROW_RULES,
    ids=[f"{n.split('.')[0]}-{c or 'field_count'}-{v}" for n, c, v, _ in ROW_RULES],
)
def test_each_row_rule_rejects_with_its_reason(input_dir, name, column, value, reason):
    before = parse_inputs(input_dir)
    with open(os.path.join(input_dir, name), newline="") as f:
        header = next(csv.reader(f))
    row = list(VALID_ROWS[name])
    if column is None:
        row.pop()
    else:
        row[header.index(column)] = value
    line = _append_row(input_dir, name, row)
    store = parse_inputs(input_dir)
    assert [r for r in store.rejected if r not in before.rejected] == [
        RejectedRow(name, line, reason)
    ]
    assert len(store.rejected) == len(before.rejected) + 1
    assert store.parsed_counts == before.parsed_counts


def test_opioid_fills_in_window_bounds_and_order():
    anchor = date(2013, 2, 1)
    catalog = [
        DrugCatalogEntry("HYD5", OpioidIngredient.HYDROCODONE, True, 5.0, 1.0),
        DrugCatalogEntry("FENTP", OpioidIngredient.FENTANYL, False, 0.0, 0.0),
    ]
    fills = [
        PharmacyClaim("p1", anchor + timedelta(days=d), code, 10.0)
        for d, code in [(8, "HYD5"), (-1, "HYD5"), (0, "HYD5"), (7, "HYD5"), (3, "FENTP")]
    ]
    store = store_from_records([], fills, [], [], catalog)
    got = opioid_fills_in_window(store, "p1", anchor, 0, 7)
    assert [(offset, f.fill_date) for offset, f, _ in got] == [
        (0, anchor), (7, anchor + timedelta(days=7)),
    ]
    assert all(entry is store.catalog["HYD5"] for _, _, entry in got)
    assert opioid_fills_in_window(store, "p2", anchor, 0, 7) == []
    # a fill outside the window is never looked up in the catalog
    store.pharmacy["p1"].append(PharmacyClaim("p1", anchor + timedelta(days=30), "ZZZ", 1.0))
    assert len(opioid_fills_in_window(store, "p1", anchor, 0, 7)) == 2
    with pytest.raises(MissingCatalogEntry):
        opioid_fills_in_window(store, "p1", anchor, 0, 30)


def test_csv_and_json_files_are_written_and_read_only_in_claims_core():
    src = os.path.dirname(os.path.abspath(parse_inputs.__code__.co_filename))
    calls = ("csv.writer(", "json.dump(", "json.load(")
    texts = {
        name: open(os.path.join(src, name), encoding="utf-8").read()
        for name in sorted(os.listdir(src)) if name.endswith(".py")
    }
    assert all(call in texts["claims_core.py"] for call in calls)
    assert [(name, call) for name, text in texts.items() if name != "claims_core.py"
            for call in calls if call in text] == []


# -- the collector pause ------------------------------------------------------

@pytest.fixture
def collector():
    """Yields with the cyclic collector enabled, and enables it again
    whatever the test left."""
    gc.enable()
    yield
    gc.enable()


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    from conftest import simulated_pipeline

    run = simulated_pipeline(
        synthgen.SimConfig(seed=11, n_providers=30, patients_per_provider_quarter=1.0))
    input_dir = str(tmp_path_factory.mktemp("inputs"))
    write_store(run.store, input_dir)
    return run, input_dir


def _builder_calls(run, input_dir):
    """Each record builder: (module, a callee it looks up there, a call of it)."""
    cal = StudyCalendar()
    codes = prescriber_profile.ProcedureCodeSet()
    return {
        "generate": (synthgen, "store_from_records", lambda: synthgen.generate(
            synthgen.SimConfig(seed=3, n_providers=5, patients_per_provider_quarter=1.0))),
        "parse_inputs": (claims_core, "store_from_records",
                         lambda: claims_core.parse_inputs(input_dir)),
        "find_index_events": (prescriber_profile, "eligible_procedures",
                              lambda: prescriber_profile.find_index_events(
                                  run.store, codes, cal.profiling_start, cal.profiling_end)),
        "build_cohort": (cohort_builder, "_evaluate_person", lambda: cohort_builder.build_cohort(
            run.store, run.profiles, cal, codes)),
        "build_analysis_table": (study_analysis, "compute_outcomes",
                                 lambda: study_analysis.build_analysis_table(
                                     run.rows, run.store, ComorbidityMap.default(),
                                     frozenset(synthgen.ANTIDEPRESSANT_CODES))),
    }


BUILDERS = ["generate", "parse_inputs", "find_index_events", "build_cohort",
            "build_analysis_table"]


class _Raised(Exception):
    pass


def _observe(monkeypatch, module, callee, raises=False):
    """Each state of the collector that the callee is called in."""
    seen = []

    def observed(*args, _fn=getattr(module, callee), **kwargs):
        seen.append(gc.isenabled())
        if raises:
            raise _Raised
        return _fn(*args, **kwargs)
    monkeypatch.setattr(module, callee, observed)
    return seen


@pytest.mark.parametrize("builder", BUILDERS)
def test_builder_runs_with_the_collector_paused(monkeypatch, collector, small_run, builder):
    module, callee, call = _builder_calls(*small_run)[builder]
    seen = _observe(monkeypatch, module, callee)
    call()
    assert seen and not any(seen)
    assert gc.isenabled()


@pytest.mark.parametrize("builder", BUILDERS)
def test_builder_restores_the_collector_when_it_raises(monkeypatch, collector, small_run,
                                                       builder):
    module, callee, call = _builder_calls(*small_run)[builder]
    seen = _observe(monkeypatch, module, callee, raises=True)
    with pytest.raises(_Raised):
        call()
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("builder", BUILDERS)
def test_builder_leaves_a_disabled_collector_disabled(monkeypatch, collector, small_run,
                                                      builder):
    module, callee, call = _builder_calls(*small_run)[builder]
    seen = _observe(monkeypatch, module, callee)
    gc.disable()
    call()
    assert seen and not any(seen)
    assert not gc.isenabled()


def test_build_cohort_restores_the_collector_after_an_uncatalogued_fill(collector, small_run):
    run, _ = small_run
    uncatalogued = dataclasses.replace(run.store, catalog={})
    cal = StudyCalendar()
    with pytest.raises(MissingCatalogEntry):
        cohort_builder.build_cohort(uncatalogued, run.profiles, cal,
                                    prescriber_profile.ProcedureCodeSet())
    assert gc.isenabled()

