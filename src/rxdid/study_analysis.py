"""DiD and pre-trend specifications, descriptive tables, trend series,
and report assembly."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from datetime import date, timedelta
from operator import itemgetter

import numpy as np

from .claims_core import (
    ClaimsStore,
    StudyCalendar,
    TextMemo,
    conforms,
    days_between,
    gc_paused,
    load_json,
    read_reference_csv,
    write_csv,
)
from .cohort_builder import CohortRow, Exposure, Period
from .glm_engine import (
    BINOMIAL_LOGIT,
    GAMMA_LOG,
    Design,
    FitResult,
    GlmError,
    confidence_interval,
    fit_arrays,
    marginal_effect,
    prepare_design,
    wald_test,
)
from .measures import (
    COVARIATE_COLUMNS,
    ComorbidityMap,
    compute_covariates,
    compute_outcomes,
)


class AnalysisError(Exception):
    pass


class DegenerateDesign(AnalysisError):
    pass


class ZeroVariance(AnalysisError):
    pass


OUTCOME_FAMILIES = {
    "persistent_use_90_180": BINOMIAL_LOGIT,
    "initial_mme_7d": GAMMA_LOG,
    "any_refill_30d": BINOMIAL_LOGIT,
    "total_mme_30d": GAMMA_LOG,
}
OUTCOMES = list(OUTCOME_FAMILIES)
MME_OUTCOMES = {"initial_mme_7d", "total_mme_30d"}

SIGNIFICANCE_LEVEL = 0.05
DAYS_PER_YEAR = 365.25
TREND_BIN_DAYS = 91

ANALYSIS_TABLE_COLUMNS = (
    ["person_id", "provider_id", "late_anchor", "exposed", "post"]
    + OUTCOMES + COVARIATE_COLUMNS
)
# person_id, provider_id and late_anchor, then the float columns
_FLOAT_COLUMNS = ANALYSIS_TABLE_COLUMNS[3:]


def _table(rows: list[tuple], flat: list) -> dict:
    """Columnar table of rows that lead with (person_id, provider_id,
    late_anchor) and of the float columns' values, row after row in one
    flat list; each float column is a contiguous array of its own, and
    the table holds its ANALYSIS_TABLE_COLUMNS and nothing else."""
    table = {name: np.asarray([row[k] for row in rows], dtype=object)
             for k, name in enumerate(ANALYSIS_TABLE_COLUMNS[:3])}
    values = np.array(flat, dtype=float).reshape(len(rows), len(_FLOAT_COLUMNS))
    for j, name in enumerate(_FLOAT_COLUMNS):
        table[name] = values[:, j].copy()
    return table


@gc_paused
def build_analysis_table(
    rows: list[CohortRow],
    store: ClaimsStore,
    cmap: ComorbidityMap,
    antidepressant_codes: frozenset[str] = frozenset(),
) -> dict:
    """Columnar analysis table: ids, design indicators, outcomes, covariates."""
    flat: list = []
    for row in rows:
        # bools become 1.0 and 0.0 in the float columns
        flat.append(row.exposure is Exposure.EXPOSED)
        flat.append(row.period is Period.POST)
        # an OutcomeVector's fields are in OUTCOMES order
        flat.extend(compute_outcomes(row, store))
        flat.extend(compute_covariates(row, store, cmap, antidepressant_codes))
    ids = [(row.person_id, row.index_event.claim.provider_id, row.index_event.late_anchor)
           for row in rows]
    return _table(ids, flat)


def write_analysis_table(path: str, table: dict) -> None:
    text = TextMemo().__getitem__
    ids = [table[name].tolist() for name in ("person_id", "provider_id")]
    # late_anchor, then the float columns
    fields = [list(map(text, table[name].tolist())) for name in ANALYSIS_TABLE_COLUMNS[2:]]
    write_csv(path, ANALYSIS_TABLE_COLUMNS, zip(*ids, *fields))


# exposed, post, the binary outcomes and the indicator covariates hold 0 or 1
_BINARY_COLUMNS = frozenset(
    ["exposed", "post", *COVARIATE_COLUMNS]
    + [name for name, family in OUTCOME_FAMILIES.items() if family == BINOMIAL_LOGIT]) - {"age"}
_binary_values = itemgetter(*(j for j, name in enumerate(_FLOAT_COLUMNS) if name in _BINARY_COLUMNS))


def _table_row(row: list[str]) -> tuple:
    """A row as the pipeline writes it: its floats finite, its binary columns 0 or 1."""
    values = list(map(float, row[3:]))
    if not all(map(math.isfinite, values)) or not set(_binary_values(values)) <= {0.0, 1.0}:
        for name, text, v in zip(_FLOAT_COLUMNS, row[3:], values):
            binary = name in _BINARY_COLUMNS
            if not math.isfinite(v) or (binary and v not in (0.0, 1.0)):
                raise ValueError(f"{name} = {text.strip()}, expected "
                                 + ("0 or 1" if binary else "a finite number"))
    return (row[0], row[1], date.fromisoformat(row[2]), *values)


def read_analysis_table(path: str) -> dict:
    rows = read_reference_csv(path, ANALYSIS_TABLE_COLUMNS, _table_row)
    return _table(rows, [v for row in rows for v in row[3:]])


@dataclass(frozen=True)
class DidEstimate:
    outcome: str
    family: str
    interaction: float
    ci_low: float
    ci_high: float
    p_value: float
    significant: bool
    ame: float
    ame_ci_low: float
    ame_ci_high: float
    n_obs: int
    n_clusters: int
    dropped_columns: tuple[str, ...] = ()
    # The fit the numbers come from; not compared, and left out of estimate_json.
    fit: FitResult | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class YearInteraction:
    coefficient: float
    ci_low: float
    ci_high: float
    p_value: float
    ame: float
    ame_ci_low: float
    ame_ci_high: float


@dataclass(frozen=True)
class PretrendResult:
    outcome: str
    family: str
    year2: YearInteraction
    year3: YearInteraction
    joint_statistic: float
    joint_df: int
    joint_p: float
    n_obs: int
    n_clusters: int
    dropped_columns: tuple[str, ...] = ()
    fit: FitResult | None = field(default=None, compare=False, repr=False)  # as DidEstimate.fit


def pre_year_index(late_anchor: date, calendar: StudyCalendar) -> int:
    """1-based pre-period year from fixed 365.25-day blocks, clamped to 1..3."""
    days = days_between(calendar.pre_start, late_anchor)
    return min(max(int(days // DAYS_PER_YEAR) + 1, 1), 3)


@dataclass(frozen=True)
class ModelDesign:
    """One model's design over the table's ``rows`` (a mask or a slice),
    shared by the fits of every outcome on those rows: its glm_engine
    Design, or why every fit on it is refused (an exposure x period cell
    with no rows, or a tested exposed:<period> term that the rank check
    dropped)."""

    rows: slice | np.ndarray
    design: Design | None
    refusal: str | None = None


def _model_design(
    table: dict,
    rows,
    periods: dict[str, np.ndarray],
    covariates: list[str] | None,
) -> ModelDesign:
    """[intercept, exposed, *periods, exposed:<period>..., *covariates] over
    the table's ``rows``.

    ``periods`` maps each period indicator to its 0/1 column over those
    rows; the rows where every indicator is 0 are the reference period.
    Each exposure group must have rows in the reference period and in each
    indicator's period.
    """
    exposed = table["exposed"][rows]
    columns = list(periods.values())
    tested = [f"exposed:{name}" for name in periods]
    cells = [(", ".join(f"{name}=0" for name in periods),
              np.logical_and.reduce([col == 0.0 for col in columns]))]
    cells += [(f"{name}=1", col == 1.0) for name, col in periods.items()]
    for e in (0.0, 1.0):
        for label, in_period in cells:
            if not np.any((exposed == e) & in_period):
                return ModelDesign(
                    rows, None, f"empty exposure x period cell (exposed={int(e)}, {label})")

    covariates = COVARIATE_COLUMNS if covariates is None else covariates
    X = np.column_stack([
        np.ones(len(exposed)), exposed, *columns, *(exposed * col for col in columns),
        *(table[name][rows] for name in covariates),
    ])
    design = prepare_design(X, ["intercept", "exposed", *periods, *tested, *covariates],
                            table["provider_id"][rows])
    lost = ", ".join(term for term in tested if term in design.dropped)
    return ModelDesign(rows, design,
                       f"{lost} dropped as collinear with the other columns" if lost else None)


def did_design(table: dict, covariates: list[str] | None = None) -> ModelDesign:
    """The exposure x period design that run_did fits each outcome on."""
    return _model_design(table, slice(None), {"post": table["post"]}, covariates)


def pretrend_design(
    table: dict, calendar: StudyCalendar, covariates: list[str] | None = None,
) -> ModelDesign:
    """The exposure x pre-year design that run_pretrend fits each outcome
    on; the pre-period rows are binned into years by calendar."""
    pre = table["post"] == 0.0
    years = np.array([pre_year_index(d, calendar) for d in table["late_anchor"][pre]])
    return _model_design(table, pre, {
        "year2": (years == 2).astype(float), "year3": (years == 3).astype(float),
    }, covariates)


def _fit_spec(table: dict, outcome: str, spec: ModelDesign) -> FitResult:
    """Fit ``outcome`` on the model's design unless the design is refused.
    Every error names the outcome."""
    if spec.refusal is not None:
        raise DegenerateDesign(f"{outcome}: {spec.refusal}")
    try:
        return fit_arrays(spec.design, table[outcome][spec.rows], OUTCOME_FAMILIES[outcome])
    except GlmError as e:
        # the same error, with its class and diagnostics
        e.args = (f"{outcome}: {e}",)
        raise


def _term(result: FitResult, term: str) -> YearInteraction:
    """Coefficient, CI, Wald p-value and average marginal effect of one term."""
    lo, hi = confidence_interval(result, term)
    ame = marginal_effect(result, term)
    return YearInteraction(result.coef(term), lo, hi, wald_test(result, [term]).p_value,
                           ame.effect, ame.ci_low, ame.ci_high)


def run_did(table: dict, outcome: str, design: ModelDesign | None = None) -> DidEstimate:
    """Exposure x period interaction model with cluster-robust inference.
    ``design`` is a did_design of the table, built once when several
    outcomes are fitted; did_design(table) by default."""
    if design is None:
        design = did_design(table)
    result = _fit_spec(table, outcome, design)
    term = _term(result, "exposed:post")
    return DidEstimate(
        outcome=outcome,
        family=result.family,
        interaction=term.coefficient,
        ci_low=term.ci_low,
        ci_high=term.ci_high,
        p_value=term.p_value,
        significant=term.p_value < SIGNIFICANCE_LEVEL,
        ame=term.ame,
        ame_ci_low=term.ame_ci_low,
        ame_ci_high=term.ame_ci_high,
        n_obs=result.n_obs,
        n_clusters=result.n_clusters,
        dropped_columns=tuple(result.dropped_columns),
        fit=result,
    )


def run_pretrend(
    table: dict, outcome: str, calendar: StudyCalendar, design: ModelDesign | None = None,
) -> PretrendResult:
    """Exposure x pre-year interactions, year 1 the reference, with a joint
    Wald test (df=2). ``design`` is a pretrend_design of the table, built
    once when several outcomes are fitted; pretrend_design(table, calendar)
    by default."""
    if design is None:
        design = pretrend_design(table, calendar)
    result = _fit_spec(table, outcome, design)
    joint = wald_test(result, ["exposed:year2", "exposed:year3"])
    return PretrendResult(
        outcome=outcome,
        family=result.family,
        year2=_term(result, "exposed:year2"),
        year3=_term(result, "exposed:year3"),
        joint_statistic=joint.statistic,
        joint_df=joint.df,
        joint_p=joint.p_value,
        n_obs=result.n_obs,
        n_clusters=result.n_clusters,
        dropped_columns=tuple(result.dropped_columns),
        fit=result,
    )


def estimate_json(estimate: DidEstimate | PretrendResult) -> dict:
    """One estimate as did.json, pretrend.json and report.json hold it."""
    return {k: v for k, v in asdict(replace(estimate, fit=None)).items() if k != "fit"}


def read_pretrend_json(path: str) -> dict:
    """pretrend.json as ``pretrend`` writes it: each outcome -> estimate_json."""
    return load_json(path, lambda data: conforms(data, dict[str, PretrendResult])
                     and sorted(data) == sorted(OUTCOMES),
                     "one pre-trend result object per outcome")


def read_report_json(path: str) -> dict:
    """report.json as ``did`` writes it: its ``did`` maps each outcome -> estimate_json."""
    return load_json(
        path, lambda data: isinstance(data, dict)
        and conforms(data.get("did"), dict[str, DidEstimate])
        and sorted(data["did"]) == sorted(OUTCOMES),
        "an object whose did holds one estimate object per outcome")


@dataclass(frozen=True)
class TrendBin:
    bin_start: date
    n: int
    mean: float


def _bin_starts(start: date, end: date) -> list[date]:
    total = days_between(start, end) + 1
    n_full = max(total // TREND_BIN_DAYS, 1)
    return [start + timedelta(days=i * TREND_BIN_DAYS) for i in range(n_full)]


def trend_series(
    table: dict, outcome: str, calendar: StudyCalendar,
) -> dict[str, list[TrendBin]]:
    """Per-group means over TREND_BIN_DAYS bins of the calendar's pre and
    post periods; the final partial bin merges into the last full bin.
    Each bin adds its values in row order."""
    days = np.array([d.toordinal() for d in table["late_anchor"].tolist()], dtype=np.int64)
    starts: list[date] = []
    # each row's bin in starts; -1 outside both periods, which never overlap
    key = np.full(len(days), -1)
    for start, end in (
        (calendar.pre_start, calendar.pre_end),
        (calendar.post_start, calendar.post_end),
    ):
        period = _bin_starts(start, end)
        offset = days - start.toordinal()
        inside = (offset >= 0) & (offset <= days_between(start, end))
        key[inside] = len(starts) + np.minimum(offset[inside] // TREND_BIN_DAYS, len(period) - 1)
        starts += period
    out: dict[str, list[TrendBin]] = {}
    for group, exposed in (("Exposed", 1.0), ("Unexposed", 0.0)):
        rows = (key >= 0) & (table["exposed"] == exposed)
        # lists of Python numbers, so a mean prints as a number
        sums = np.bincount(key[rows], table[outcome][rows], len(starts)).tolist()
        counts = np.bincount(key[rows], minlength=len(starts)).tolist()
        out[group] = [TrendBin(s, n, total / n if n else float("nan"))
                      for s, total, n in zip(starts, sums, counts)]
    return out


def write_trends_csv(path: str, series: dict[str, list[TrendBin]]) -> None:
    write_csv(path, ["group", "bin_start", "n", "mean"], (
        [group, b.bin_start.isoformat(), b.n, "" if math.isnan(b.mean) else repr(b.mean)]
        for group in ("Exposed", "Unexposed") for b in series[group]
    ))


def std_diff_continuous(m1: float, s1: float, m2: float, s2: float) -> float:
    denom = math.sqrt((s1 * s1 + s2 * s2) / 2.0)
    if denom == 0.0:
        if m1 == m2:
            return 0.0
        raise ZeroVariance("both groups constant with unequal means")
    return (m1 - m2) / denom


def std_diff_proportion(p1: float, p2: float) -> float:
    denom = math.sqrt((p1 * (1.0 - p1) + p2 * (1.0 - p2)) / 2.0)
    if denom == 0.0:
        if p1 == p2:
            return 0.0
        raise ZeroVariance("degenerate proportions with unequal values")
    return (p1 - p2) / denom


def table_one(table: dict) -> list[dict]:
    """Descriptive comparison of exposed vs unexposed with standardized
    differences; age also reported as median (IQR)."""
    exp_mask = table["exposed"] == 1.0
    unexp_mask = table["exposed"] == 0.0
    if not np.any(exp_mask) or not np.any(unexp_mask):
        raise DegenerateDesign("table_one requires both exposure groups")
    rows = []

    def quartiles(v: np.ndarray) -> tuple[float, ...]:
        """Median, lower and upper quartile."""
        return tuple(float(np.percentile(v, q)) for q in (50, 25, 75))

    age_e = table["age"][exp_mask]
    age_u = table["age"][unexp_mask]
    d = std_diff_continuous(
        float(age_e.mean()), float(age_e.std(ddof=1)),
        float(age_u.mean()), float(age_u.std(ddof=1)),
    )
    me, q1e, q3e = quartiles(age_e)
    mu_, q1u, q3u = quartiles(age_u)
    rows.append({
        "variable": "age",
        "kind": "continuous",
        "exposed": f"{me:.1f} ({q1e:.1f}-{q3e:.1f})",
        "unexposed": f"{mu_:.1f} ({q1u:.1f}-{q3u:.1f})",
        "std_diff": d,
    })
    for name in COVARIATE_COLUMNS:
        if name == "age":
            continue
        p1 = float(table[name][exp_mask].mean())
        p2 = float(table[name][unexp_mask].mean())
        try:
            d = std_diff_proportion(p1, p2)
            flag = ""
        except ZeroVariance:
            d = float("nan")
            flag = "zero_variance"
        rows.append({
            "variable": name,
            "kind": "proportion",
            "exposed": f"{int(round(p1 * exp_mask.sum()))} ({100 * p1:.1f})",
            "unexposed": f"{int(round(p2 * unexp_mask.sum()))} ({100 * p2:.1f})",
            "std_diff": d,
            **({"flag": flag} if flag else {}),
        })
    return rows


def write_table_one_csv(path: str, rows: list[dict]) -> None:
    write_csv(path, ["variable", "kind", "exposed", "unexposed", "std_diff"], (
        [r["variable"], r["kind"], r["exposed"], r["unexposed"],
         "" if math.isnan(r["std_diff"]) else repr(float(r["std_diff"]))]
        for r in rows
    ))


# --- report rendering -------------------------------------------------------

def format_effect(value: float, ci_low: float, ci_high: float, unit: str = "") -> str:
    suffix = f" {unit}" if unit else ""
    return f"{value:.1f}{suffix} (95% CI {ci_low:.1f}, {ci_high:.1f})"


def format_p(p: float) -> str:
    if p < 0.001:
        return "P<0.001"
    return f"P={p:.3g}"


def render_pretrend_summary(outcome: str, entry: dict) -> list[str]:
    """Human-readable pre-trend lines for one outcome.

    MME outcomes render the response-scale (average marginal effect)
    year interactions; binary outcomes render link-scale coefficients.
    """
    unit = "MME" if outcome in MME_OUTCOMES else ""
    lines = [f"joint interaction test: {format_p(entry['joint_p'])}"]
    for year in ("year3", "year2"):
        y = entry[year]
        if unit:
            text = format_effect(y["ame"], y["ame_ci_low"], y["ame_ci_high"], unit)
        else:
            text = format_effect(y["coefficient"], y["ci_low"], y["ci_high"])
        lines.append(
            f"exposure x {year} (vs year 1): {text}, {format_p(y['p_value'])}"
        )
    return lines


def render_report_from_estimates(estimates: dict) -> dict:
    """The report from its raw sections, each pre-trend entry with its
    summary lines added; numbers pass through verbatim."""
    report = dict(estimates)
    if "pretrend" in report:
        report["pretrend"] = {
            name: {**entry, "summary": render_pretrend_summary(name, entry)}
            for name, entry in report["pretrend"].items()
        }
    return report

