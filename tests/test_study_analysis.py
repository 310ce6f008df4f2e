"""DiD and pre-trend specifications, descriptive tables, trends, report text."""
import json
import math
import os
import tempfile
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rxdid import glm_engine, study_analysis
from rxdid.claims_core import StudyCalendar, write_json
from rxdid.glm_engine import NonConvergence
from rxdid.study_analysis import (
    TREND_BIN_DAYS,
    DegenerateDesign,
    ZeroVariance,
    did_design,
    estimate_json,
    format_effect,
    format_p,
    pre_year_index,
    pretrend_design,
    render_report_from_estimates,
    run_did,
    run_pretrend,
    std_diff_continuous,
    std_diff_proportion,
    table_one,
    trend_series,
    write_table_one_csv,
    write_trends_csv,
)

CAL = StudyCalendar()
RNG = np.random.default_rng(20141006)


def _binary_table(cells, n_clusters=10):
    """cells: (exposed, post, n, events) per 2x2 cell."""
    exposed, post, y, providers = [], [], [], []
    i = 0
    for e, p, n, k in cells:
        for j in range(n):
            exposed.append(float(e))
            post.append(float(p))
            y.append(1.0 if j < k else 0.0)
            providers.append(f"dr{e}{i % n_clusters:02d}")
            i += 1
    n_total = len(y)
    anchor = np.array(
        [CAL.post_start if p else CAL.pre_start for p in post], dtype=object
    )
    return {
        "exposed": np.array(exposed),
        "post": np.array(post),
        "any_refill_30d": np.array(y),
        "late_anchor": anchor,
        "provider_id": np.array(providers, dtype=object),
        "person_id": np.array([f"p{i}" for i in range(n_total)], dtype=object),
    }


def test_did_saturated_closed_form():
    # odds ratios: pre 2.25, post 1.0; interaction = ln(1/2.25)
    table = _binary_table([
        (1, 0, 100, 20), (0, 0, 100, 10), (1, 1, 100, 10), (0, 1, 100, 10),
    ])
    est = run_did(table, "any_refill_30d", design=did_design(table, []))
    assert est.interaction == pytest.approx(math.log(1 / 2.25), abs=1e-8)
    assert est.interaction == pytest.approx(-0.81093, abs=1e-5)
    assert est.ci_low < est.interaction < est.ci_high
    assert est.n_obs == 400


def test_did_null_cells():
    table = _binary_table([
        (1, 0, 100, 25), (0, 0, 100, 25), (1, 1, 100, 25), (0, 1, 100, 25),
    ])
    est = run_did(table, "any_refill_30d", design=did_design(table, []))
    assert est.interaction == pytest.approx(0.0, abs=1e-8)
    assert est.p_value == pytest.approx(1.0, abs=1e-6)
    assert not est.significant


def test_did_gamma_ratio_of_ratios():
    means = {(1, 0): 200.0, (0, 0): 100.0, (1, 1): 150.0, (0, 1): 120.0}
    exposed, post, y, providers = [], [], [], []
    i = 0
    for (e, p), m in means.items():
        for j in range(50):
            exposed.append(float(e))
            post.append(float(p))
            # tiny symmetric jitter keeps the response non-degenerate
            y.append(m + (0.001 if j % 2 else -0.001))
            providers.append(f"dr{i % 8}")
            i += 1
    table = {
        "exposed": np.array(exposed), "post": np.array(post),
        "initial_mme_7d": np.array(y),
        "provider_id": np.array(providers, dtype=object),
    }
    est = run_did(table, "initial_mme_7d", design=did_design(table, []))
    expected = math.log((150.0 / 120.0) / (200.0 / 100.0))
    assert est.interaction == pytest.approx(expected, abs=1e-6)


def test_did_empty_cell_degenerate():
    table = _binary_table([(1, 0, 100, 20), (0, 0, 100, 10), (1, 1, 100, 10)])
    with pytest.raises(DegenerateDesign):
        run_did(table, "any_refill_30d", design=did_design(table, []))


def test_did_dropped_interaction_is_degenerate(monkeypatch):
    # A covariate that is a larger multiple of exposed:post takes the pivot
    # first, so the rank check drops the tested term itself. The design is
    # refused once, before any outcome is fitted on it.
    table = _binary_table([
        (1, 0, 100, 20), (0, 0, 100, 10), (1, 1, 100, 10), (0, 1, 100, 10),
    ])
    table["dose"] = 3.0 * table["exposed"] * table["post"]
    table["persistent_use_90_180"] = table["any_refill_30d"][::-1].copy()
    design = did_design(table, ["dose"])

    def fitted(*args, **kwargs):
        raise AssertionError("a refused design was fitted")
    monkeypatch.setattr(study_analysis, "fit_arrays", fitted)
    for outcome in ("any_refill_30d", "persistent_use_90_180"):
        with pytest.raises(DegenerateDesign) as e:
            run_did(table, outcome, design=design)
        assert str(e.value) == f"{outcome}: exposed:post dropped as collinear with the other columns"


def test_did_nonconvergence_raises_with_diagnostics(monkeypatch):
    monkeypatch.setattr(glm_engine, "MAX_ITERATIONS", 1)
    table = _binary_table([
        (1, 0, 100, 20), (0, 0, 100, 10), (1, 1, 100, 10), (0, 1, 100, 10),
    ])
    with pytest.raises(NonConvergence) as exc:
        run_did(table, "any_refill_30d", design=did_design(table, []))
    trace = exc.value.deviance_trace
    assert len(trace) == 2
    message = str(exc.value)
    assert message.startswith("any_refill_30d: ")
    assert "1 iterations" in message
    assert f"{trace[0]!r}, {trace[1]!r}" in message
    assert "\n" not in message


# -- pre-trend ---------------------------------------------------------------

@pytest.mark.parametrize("days,year", [
    (0, 1), (364, 1), (365, 1), (366, 2), (730, 2), (731, 3), (1095, 3),
])
def test_pre_year_index_blocks(days, year):
    assert pre_year_index(CAL.pre_start + timedelta(days=days), CAL) == year


def _pretrend_table(year3_ratio=1.0, n_per=120):
    """Gamma outcome over 3 pre years; exposed year-3 mean scaled by ratio."""
    exposed, y, anchors, providers = [], [], [], []
    i = 0
    for year in (1, 2, 3):
        day = CAL.pre_start + timedelta(days=int((year - 1) * 365.25) + 100)
        for e in (0, 1):
            mult = year3_ratio if (e and year == 3) else 1.0
            mu = 150.0 * mult
            for _ in range(n_per):
                exposed.append(float(e))
                y.append(RNG.gamma(shape=20.0, scale=mu / 20.0))
                anchors.append(day)
                providers.append(f"dr{e}{i % 12:02d}")
                i += 1
    n = len(y)
    return {
        "exposed": np.array(exposed),
        "post": np.zeros(n),
        "initial_mme_7d": np.array(y),
        "late_anchor": np.array(anchors, dtype=object),
        "provider_id": np.array(providers, dtype=object),
    }


def test_pretrend_recovers_year3_shift():
    ratio = math.exp(0.3)
    table = _pretrend_table(year3_ratio=ratio)
    res = run_pretrend(table, "initial_mme_7d", CAL, design=pretrend_design(table, CAL, []))
    assert res.year3.ci_low <= 0.3 <= res.year3.ci_high
    assert res.joint_df == 2
    assert res.joint_p < 0.05


def test_pretrend_flat_is_nonsignificant():
    table = _pretrend_table()
    res = run_pretrend(table, "initial_mme_7d", CAL, design=pretrend_design(table, CAL, []))
    assert abs(res.year2.coefficient) < 0.1
    assert abs(res.year3.coefficient) < 0.1
    assert res.joint_p > 0.05


def test_pretrend_requires_pre_rows():
    table = _binary_table([(1, 1, 50, 10), (0, 1, 50, 10)])
    table["post"][:] = 1.0
    with pytest.raises(DegenerateDesign):
        run_pretrend(table, "any_refill_30d", CAL, design=pretrend_design(table, CAL, []))


@pytest.mark.parametrize("exposed", [0, 1])
@pytest.mark.parametrize("year", [1, 2, 3])
def test_pretrend_empty_exposure_year_cell_is_degenerate(exposed, year):
    # Each of the six exposure x pre-year cells, the year-1 reference included.
    table = _pretrend_table()
    years = np.array([pre_year_index(d, CAL) for d in table["late_anchor"]])
    keep = ~((table["exposed"] == exposed) & (years == year))
    table = {name: column[keep] for name, column in table.items()}
    cell = "year2=0, year3=0" if year == 1 else f"year{year}=1"
    with pytest.raises(DegenerateDesign, match=rf"\(exposed={exposed}, {cell}\)"):
        run_pretrend(table, "initial_mme_7d", CAL, design=pretrend_design(table, CAL, []))


def test_a_shared_design_gives_each_outcome_its_own_estimate():
    table = _pretrend_table()
    n = len(table["exposed"])
    table["post"] = (np.arange(n) % 2).astype(float)
    table["total_mme_30d"] = table["initial_mme_7d"] * 1.5 + RNG.gamma(2.0, 10.0, n)
    outcomes = ["initial_mme_7d", "total_mme_30d"]
    did = did_design(table, [])
    pre = pretrend_design(table, CAL, [])
    for outcome in outcomes:
        assert estimate_json(run_did(table, outcome, design=did)) == estimate_json(
            run_did(table, outcome, design=did_design(table, [])))
        assert estimate_json(run_pretrend(table, outcome, CAL, design=pre)) == estimate_json(
            run_pretrend(table, outcome, CAL, design=pretrend_design(table, CAL, [])))


def test_design_with_an_empty_cell_refuses_every_outcome():
    table = _binary_table([(1, 0, 50, 10), (0, 0, 50, 10), (0, 1, 50, 10)])
    table["initial_mme_7d"] = np.full(len(table["exposed"]), 100.0)
    design = did_design(table, [])
    for outcome in ("any_refill_30d", "initial_mme_7d"):
        with pytest.raises(DegenerateDesign) as e:
            run_did(table, outcome, design=design)
        assert str(e.value) == f"{outcome}: empty exposure x period cell (exposed=1, post=1)"


def test_did_and_pretrend_share_one_design_builder():
    table = _pretrend_table()
    table["post"] = (np.arange(len(table["exposed"])) % 2).astype(float)
    did = run_did(table, "initial_mme_7d", design=did_design(table, [])).fit
    pre = run_pretrend(table, "initial_mme_7d", CAL, design=pretrend_design(table, CAL, [])).fit
    assert did.names == ["intercept", "exposed", "post", "exposed:post"]
    assert pre.names == ["intercept", "exposed", "year2", "year3",
                         "exposed:year2", "exposed:year3"]
    assert np.array_equal(did.X[:, 3], table["exposed"] * table["post"])
    rows = table["post"] == 0.0
    assert pre.n_obs == rows.sum()
    assert np.array_equal(pre.X[:, 1], table["exposed"][rows])
    assert np.array_equal(pre.X[:, 4], pre.X[:, 1] * pre.X[:, 2])


# -- trend series ------------------------------------------------------------

def _trend_table(vals_by_group):
    exposed, y, anchors = [], [], []
    pre_days = (CAL.pre_end - CAL.pre_start).days + 1
    post_days = (CAL.post_end - CAL.post_start).days + 1
    for e, v in vals_by_group.items():
        for d in range(0, pre_days, 13):
            exposed.append(float(e))
            y.append(v)
            anchors.append(CAL.pre_start + timedelta(days=d))
        for d in range(0, post_days, 13):
            exposed.append(float(e))
            y.append(v)
            anchors.append(CAL.post_start + timedelta(days=d))
    return {
        "exposed": np.array(exposed),
        "any_refill_30d": np.array(y),
        "late_anchor": np.array(anchors, dtype=object),
    }


def test_trend_bin_count_and_constant_means():
    series = trend_series(_trend_table({1: 1.0, 0: 1.0}), "any_refill_30d", CAL)
    for group in ("Exposed", "Unexposed"):
        bins = series[group]
        # 1096 pre days -> 12 full 91-day bins (remainder merged) + 4 post bins
        assert len(bins) == 12 + 4
        assert bins[0].bin_start == CAL.pre_start
        assert bins[12].bin_start == CAL.post_start
        for b in bins:
            assert b.n > 0 and b.mean == 1.0


def test_trend_groups_separated_by_construction():
    series = trend_series(_trend_table({1: 0.4, 0: 0.2}), "any_refill_30d", CAL)
    for be, bu in zip(series["Exposed"], series["Unexposed"]):
        assert be.mean - bu.mean == pytest.approx(0.2)


def test_trend_weighted_mean_identity():
    # bin means weighted by bin n reproduce the group grand mean
    n = 500
    table = {
        "exposed": np.concatenate([np.ones(n), np.zeros(n)]),
        "any_refill_30d": RNG.random(2 * n),
        "late_anchor": np.array(
            [CAL.pre_start + timedelta(days=int(d))
             for d in RNG.integers(0, 1096, size=2 * n)], dtype=object
        ),
    }
    series = trend_series(table, "any_refill_30d", CAL)
    for group, mask in (("Exposed", table["exposed"] == 1.0),
                        ("Unexposed", table["exposed"] == 0.0)):
        grand = float(table["any_refill_30d"][mask].mean())
        num = sum(b.mean * b.n for b in series[group] if b.n)
        den = sum(b.n for b in series[group])
        assert num / den == pytest.approx(grand, abs=1e-12)


def _trend_series_by_row(table, outcome, calendar):
    """The per-row loop trend_series replaced: the reference its bins must
    equal bit for bit."""
    values = table[outcome].tolist()
    out = {}
    for group, mask in (
        ("Exposed", table["exposed"] == 1.0),
        ("Unexposed", table["exposed"] == 0.0),
    ):
        bins = []
        for (start, end) in (
            (calendar.pre_start, calendar.pre_end),
            (calendar.post_start, calendar.post_end),
        ):
            n_full = max(((end - start).days + 1) // TREND_BIN_DAYS, 1)
            starts = [start + timedelta(days=i * TREND_BIN_DAYS) for i in range(n_full)]
            sums = [0.0] * len(starts)
            counts = [0] * len(starts)
            for i in np.flatnonzero(mask):
                d = table["late_anchor"][i]
                if not (start <= d <= end):
                    continue
                idx = min((d - start).days // TREND_BIN_DAYS, len(starts) - 1)
                sums[idx] += values[i]
                counts[idx] += 1
            for s, total, n in zip(starts, sums, counts):
                bins.append((s, n, total / n if n else float("nan")))
        out[group] = bins
    return out


# A calendar whose periods are shorter than one bin: one bin each, the partial one.
SHORT_CAL = StudyCalendar(date(2012, 1, 1), date(2012, 2, 15), date(2012, 3, 1), date(2012, 3, 2))


@st.composite
def _trend_tables(draw):
    """Rows anchored before pre, in pre (its merged tail too), in the
    washout, in post and after post, with values whose order of addition shows."""
    cal = draw(st.sampled_from([CAL, SHORT_CAL]))
    pre_days = (cal.pre_end - cal.pre_start).days
    regions = {
        "before": (cal.pre_start - timedelta(days=60), cal.pre_start - timedelta(days=1)),
        "pre": (cal.pre_start, cal.pre_end),
        "pre_tail": (cal.pre_start + timedelta(days=pre_days - pre_days % TREND_BIN_DAYS),
                     cal.pre_end),
        "washout": (cal.pre_end + timedelta(days=1), cal.post_start - timedelta(days=1)),
        "post": (cal.post_start, cal.post_end),
        "after": (cal.post_end + timedelta(days=1), cal.post_end + timedelta(days=60)),
    }
    rows = draw(st.lists(st.tuples(
        st.sampled_from([0.0, 1.0, 0.5]),
        st.sampled_from(sorted(regions)),
        # a few shared positions put several rows into one bin
        st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1),
        st.sampled_from([0.1, 0.2, 0.3, 1.0, 1e16, -1e16, 1e-17, -0.0])
        | st.floats(-1e6, 1e6, allow_nan=False),
    ), max_size=80))
    anchors = []
    for _, region, where, _ in rows:
        first, last = regions[region]
        anchors.append(first + timedelta(days=round(where * (last - first).days)))
    table = {
        "exposed": np.array([r[0] for r in rows]),
        "any_refill_30d": np.array([r[3] for r in rows]),
        "late_anchor": np.array(anchors, dtype=object),
    }
    return table, cal


@settings(max_examples=300, deadline=None)
@given(_trend_tables())
def test_trend_series_equals_the_per_row_loop_bit_for_bit(case):
    table, cal = case
    series = trend_series(table, "any_refill_30d", cal)
    expected = _trend_series_by_row(table, "any_refill_30d", cal)
    assert list(series) == list(expected)
    for group, bins in series.items():
        assert [(b.bin_start, b.n, repr(b.mean)) for b in bins] == [
            (s, n, repr(mean)) for s, n, mean in expected[group]]
        assert all(type(b.mean) is float and type(b.n) is int for b in bins)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "trends.csv")
        write_trends_csv(path, series)
        with open(path, encoding="utf-8") as f:
            assert "np.float64(" not in f.read()


def test_trend_tables_reach_empty_bins_and_the_merged_tail():
    # The cases the property test is for, on one fixed table.
    pre_days = (CAL.pre_end - CAL.pre_start).days
    anchors = [CAL.pre_start - timedelta(days=1), CAL.pre_start,
               CAL.pre_start + timedelta(days=pre_days), CAL.pre_end + timedelta(days=1),
               CAL.post_start, CAL.post_end + timedelta(days=1)]
    table = {
        "exposed": np.ones(len(anchors)),
        "any_refill_30d": np.arange(1.0, len(anchors) + 1),
        "late_anchor": np.array(anchors, dtype=object),
    }
    bins = trend_series(table, "any_refill_30d", CAL)["Exposed"]
    assert [b.n for b in bins] == [1] + [0] * 10 + [1] + [1, 0, 0, 0]
    assert (bins[0].mean, bins[11].mean, bins[12].mean) == (2.0, 3.0, 5.0)
    assert math.isnan(bins[1].mean)


def test_trends_csv_means_are_plain_numbers(tmp_path):
    path = tmp_path / "trends.csv"
    write_trends_csv(str(path), trend_series(_trend_table({1: 0.4, 0: 0.2}), "any_refill_30d",
                                         CAL))
    lines = path.read_text().splitlines()
    assert lines[0] == "group,bin_start,n,mean" and len(lines) > 1
    for line in lines[1:]:
        float(line.rsplit(",", 1)[1])


# -- standardized differences / table one ------------------------------------

def test_std_diff_proportion_values():
    assert std_diff_proportion(0.5, 0.5) == 0.0
    assert std_diff_proportion(0.3, 0.2) == pytest.approx(0.1 / math.sqrt(0.185))
    assert std_diff_proportion(0.3, 0.2) == pytest.approx(0.23250, abs=1e-4)


def test_std_diff_zero_variance():
    assert std_diff_proportion(0.0, 0.0) == 0.0
    with pytest.raises(ZeroVariance):
        std_diff_proportion(1.0, 0.0)
    assert std_diff_continuous(2.0, 0.0, 2.0, 0.0) == 0.0
    with pytest.raises(ZeroVariance):
        std_diff_continuous(2.0, 0.0, 3.0, 0.0)


def test_std_diff_continuous_formula():
    assert std_diff_continuous(10.0, 2.0, 8.0, 2.0) == pytest.approx(1.0)
    assert std_diff_continuous(1.0, 3.0, 0.0, 4.0) == pytest.approx(
        1.0 / math.sqrt((9 + 16) / 2)
    )


def _table_one_input():
    n = 40
    return {
        "exposed": np.concatenate([np.ones(n), np.zeros(n)]),
        "age": np.concatenate([50 + np.arange(n) % 20, 52 + np.arange(n) % 20]).astype(float),
        "sex_female": np.concatenate([
            np.repeat([1.0, 0.0], [12, 28]), np.repeat([1.0, 0.0], [8, 32])
        ]),
    }


def test_table_one_rows(monkeypatch):
    import rxdid.study_analysis as sa
    monkeypatch.setattr(sa, "COVARIATE_COLUMNS", ["age", "sex_female"])
    rows = table_one(_table_one_input())
    by_var = {r["variable"]: r for r in rows}
    assert by_var["age"]["kind"] == "continuous"
    sx = by_var["sex_female"]
    assert sx["std_diff"] == pytest.approx(std_diff_proportion(0.3, 0.2))
    assert sx["exposed"] == "12 (30.0)"
    assert sx["unexposed"] == "8 (20.0)"


def test_table_one_flags_a_covariate_split_by_exposure(monkeypatch, tmp_path):
    # 1 on every exposed row and 0 on every unexposed row: a standardized
    # difference of proportions has no variance to divide by.
    monkeypatch.setattr(study_analysis, "COVARIATE_COLUMNS", ["age", "sex_female", "split"])
    data = _table_one_input()
    data["split"] = data["exposed"].copy()
    by_var = {r["variable"]: r for r in table_one(data)}
    assert by_var["split"]["flag"] == "zero_variance"
    assert math.isnan(by_var["split"]["std_diff"])
    assert by_var["split"]["exposed"] == "40 (100.0)"
    assert by_var["split"]["unexposed"] == "0 (0.0)"
    assert "flag" not in by_var["sex_female"]
    path = tmp_path / "table_one.csv"
    write_table_one_csv(str(path), table_one(data))
    lines = path.read_text().splitlines()
    assert lines[-1] == "split,proportion,40 (100.0),0 (0.0),"
    assert not lines[-2].endswith(",")


def test_table_one_requires_both_groups():
    data = _table_one_input()
    data["exposed"][:] = 1.0
    with pytest.raises(DegenerateDesign):
        table_one(data)


# -- report rendering --------------------------------------------------------

def test_format_effect_mme():
    assert format_effect(-10.9, -19.6, -2.2, "MME") == \
        "-10.9 MME (95% CI -19.6, -2.2)"
    assert format_effect(-13.9, -22.7, -5.1, "MME") == \
        "-13.9 MME (95% CI -22.7, -5.1)"


def test_format_p_values():
    assert format_p(0.005) == "P=0.005"
    assert format_p(0.22) == "P=0.22"
    assert format_p(0.0005) == "P<0.001"


def _year(ame, lo, hi, p):
    return {
        "coefficient": 0.0, "ci_low": 0.0, "ci_high": 0.0, "p_value": p,
        "ame": ame, "ame_ci_low": lo, "ame_ci_high": hi,
    }


def test_canned_estimates_render_verbatim():
    estimates = {
        "run_id": "fixture",
        "pretrend": {
            "initial_mme_7d": {
                "joint_p": 0.005,
                "year3": _year(-10.9, -19.6, -2.2, 0.01),
                "year2": _year(-13.9, -22.7, -5.1, 0.02),
            },
            "any_refill_30d": {
                "joint_p": 0.22,
                "year3": _year(0.0, 0.0, 0.0, 0.29),
                "year2": _year(0.0, 0.0, 0.0, 0.75),
            },
        },
    }
    report = render_report_from_estimates(estimates)
    lines = report["pretrend"]["initial_mme_7d"]["summary"]
    assert lines[0] == "joint interaction test: P=0.005"
    assert "-10.9 MME (95% CI -19.6, -2.2)" in lines[1]
    assert "-13.9 MME (95% CI -22.7, -5.1)" in lines[2]
    binary = report["pretrend"]["any_refill_30d"]["summary"]
    assert binary[0] == "joint interaction test: P=0.22"


def test_report_json_byte_identical(tmp_path):
    report = {"run_id": "r", "did": {"a": 1.0, "b": [1, 2]}}
    p1, p2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    write_json(p1, report)
    write_json(p2, json.loads(open(p1).read()) and report)
    assert open(p1, "rb").read() == open(p2, "rb").read()
