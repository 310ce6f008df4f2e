"""Deterministic synthetic-claims generator with injectable policy
effects, plus the ground-truth verdict checker."""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
from bisect import bisect
from dataclasses import dataclass, field, fields, asdict
from datetime import timedelta

from .claims_core import (
    ClaimsStore,
    DrugCatalogEntry,
    EnrollmentSpan,
    MalformedRow,
    MedicalClaim,
    OpioidIngredient,
    PersonDemographics,
    PharmacyClaim,
    ProviderType,
    Setting,
    Sex,
    StudyCalendar,
    conforms,
    days_between,
    gc_paused,
    load_json,
    read_settings,
    store_from_records,
    write_json,
    write_store,
)
from .measures import DEFAULT_COMORBIDITY_MAP


class SynthError(Exception):
    pass


class InvalidConfig(SynthError):
    pass


class RunMismatch(SynthError):
    pass


# Small fixed formulary so MME arithmetic is exact in decimal.
FORMULARY = [
    DrugCatalogEntry("HYD5", OpioidIngredient.HYDROCODONE, True, 5.0, 1.0),
    DrugCatalogEntry("HYD10", OpioidIngredient.HYDROCODONE, True, 10.0, 1.0),
    DrugCatalogEntry("OXY5", OpioidIngredient.OXYCODONE, True, 5.0, 1.5),
    DrugCatalogEntry("TRA50", OpioidIngredient.TRAMADOL, True, 50.0, 0.1),
    DrugCatalogEntry("MOR15", OpioidIngredient.MORPHINE, True, 15.0, 1.0),
    DrugCatalogEntry("AD001", OpioidIngredient.NONE, False, 0.0, 0.0),
]
NON_HYDRO_CODES = ["OXY5", "TRA50", "MOR15"]
ANTIDEPRESSANT_CODES = frozenset({"AD001"})

# name -> (CPT code, default weight, probability that the stay is inpatient)
PROCEDURES = {
    "laparoscopic_cholecystectomy": ("47562", 24, 0.1),
    "open_cholecystectomy": ("47600", 1, 0.7),
    "laparoscopic_appendectomy": ("44970", 9, 0.1),
    "open_appendectomy": ("44950", 1, 0.5),
    "inguinal_hernia_repair": ("49505", 12, 0.1),
    "carpal_tunnel_release": ("64721", 9, 0.1),
    "knee_arthroscopy": ("29881", 20, 0.1),
    "total_knee_replacement": ("27447", 10, 0.9),
    "total_hip_replacement": ("27130", 5, 0.9),
    "breast_excision": ("19301", 9, 0.1),
}
DEFAULT_PROCEDURE_WEIGHTS = {name: weight for name, (_, weight, _) in PROCEDURES.items()}
OFFICE_VISIT_CPT = "99213"


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    n_providers: int = 100
    high_pref_fraction: float = 0.5
    share_mean_high: float = 0.9
    share_mean_low: float = 0.1
    share_concentration: float = 200.0
    group_practice_fraction: float = 0.3
    patients_per_provider_quarter: float = 2.0
    initial_mme_mean: float = 200.0
    initial_mme_shape: float = 4.0
    refill_prob: float = 0.25
    persistence_prob: float = 0.08
    trend_initial_mme_exposed: float = 0.0
    trend_initial_mme_unexposed: float = 0.0
    trend_refill_exposed: float = 0.0
    trend_refill_unexposed: float = 0.0
    trend_persistence_exposed: float = 0.0
    trend_persistence_unexposed: float = 0.0
    effect_initial_mme: float = 1.0
    effect_refill: float = 1.0
    effect_persistence: float = 1.0
    enrollment_gap_rate: float = 0.02
    prior_opioid_rate: float = 0.02
    no_fill_rate: float = 0.05
    underage_rate: float = 0.01
    sex_female_prob: float = 0.54
    comorbidity_prev: float = 0.06
    antidepressant_prev: float = 0.15
    procedure_weights: dict = field(
        default_factory=lambda: dict(DEFAULT_PROCEDURE_WEIGHTS)
    )

    def __post_init__(self):
        problems = [f"{f.name}={getattr(self, f.name)} must be finite" for f in fields(self)
                    if f.type == "float" and not math.isfinite(getattr(self, f.name))]
        for name in (
            "high_pref_fraction", "group_practice_fraction", "enrollment_gap_rate",
            "prior_opioid_rate", "no_fill_rate", "underage_rate", "sex_female_prob",
            "comorbidity_prev", "antidepressant_prev",
        ):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                problems.append(f"{name}={v} must be in [0, 1]")
        for name in ("refill_prob", "persistence_prob", "share_mean_high", "share_mean_low"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                # generate() takes logits of the first two, beta draws around the last two
                problems.append(f"{name}={v} must be in (0, 1)")
        for name in ("effect_initial_mme", "effect_refill", "effect_persistence"):
            if getattr(self, name) <= 0:
                problems.append(f"{name} must be > 0")
        if self.n_providers < 1:
            problems.append("n_providers must be >= 1")
        if self.initial_mme_mean <= 0 or self.initial_mme_shape <= 0:
            problems.append("initial MME mean and shape must be > 0")
        if self.share_concentration <= 0:
            problems.append("share_concentration must be > 0")
        if self.patients_per_provider_quarter < 0:
            problems.append("patients_per_provider_quarter must be >= 0")
        weights = list(self.procedure_weights.values())
        if not (all(w >= 0 for w in weights) and 0 < sum(weights) < math.inf):
            problems.append("procedure weights must be >= 0 with a finite, positive sum")
        if problems:
            raise InvalidConfig("; ".join(problems))

    @classmethod
    def from_file(cls, path: str) -> "SimConfig":
        """Read the config's fields and ``proc_weight_<procedure>`` numbers
        from a settings file (read_settings); unnamed procedures weigh 0."""
        values, unknown = read_settings(path, cls, "config", "key = value")
        weights = {}
        for lineno, key, text in unknown:
            name = key.removeprefix("proc_weight_")
            if name == key or name not in DEFAULT_PROCEDURE_WEIGHTS:
                raise InvalidConfig(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                weights[name] = float(text)
            except ValueError as e:
                raise MalformedRow(path, lineno, f"{key}: {e}") from None
        if weights:
            values["procedure_weights"] = weights
        try:
            return cls(**values)
        except InvalidConfig as e:
            raise InvalidConfig(f"{path}: {e}") from None

    def run_id(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class GroundTruth:
    run_id: str
    seed: int
    injected_effects: dict[str, float]
    provider_strata: dict[str, str]
    n_episodes: int


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


# Two draws of random.py's Python layer, copied so that each costs generate()
# one call instead of three (see its docstring for the tests that pin them).

def randbelow(getrandbits, n: int) -> int:
    """``Random.randrange(n)`` for an int n >= 1, given that generator's
    ``getrandbits``: draw n.bit_length() bits until the value is below n
    (``Random._randbelow_with_getrandbits``). ``randint(a, b)`` is
    ``a + randbelow(getrandbits, b - a + 1)``."""
    if n < 1:
        raise ValueError(f"empty range for randbelow: {n}")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def weighted_index(random, cum_weights: list) -> int:
    """The index ``Random.choices(population, cum_weights=cum_weights)[0]``
    picks, given that generator's ``random``: one draw, bisected into the
    cumulative weights (whose total must be positive and finite)."""
    return bisect(cum_weights, random() * (cum_weights[-1] + 0.0), 0, len(cum_weights) - 1)


# generate() looks dates up by day offset in a table that reaches this far
# before the study's first day and after its last. Every generated date
# lies well inside: enrollment starts at most 179 days before a service
# day and ends at most 263 days after one.
_MARGIN_DAYS = 366


@gc_paused
def generate(
    config: SimConfig,
    out_dir: str | None = None,
    calendar: StudyCalendar | None = None,
) -> tuple[ClaimsStore, GroundTruth]:
    """Generate synthetic claims; optionally write the five input CSVs
    plus ground_truth.json under out_dir.

    One ``random.Random(config.seed)`` makes every draw, through its public
    methods only: ``random``, ``getrandbits``, ``betavariate`` and
    ``gammavariate``. The integer and procedure draws copy two algorithms
    of CPython's random.py onto those methods: ``randbelow`` is
    ``randrange``/``randint`` (``getrandbits`` until the value is below n)
    and ``weighted_index`` is ``choices(cum_weights=...)`` (a bisect of
    ``random() * total``). ``test_randbelow_matches_randrange_and_randint``
    and ``test_weighted_index_matches_choices`` in tests/test_synthgen.py
    pin them to the running interpreter's library, and the digests of
    tests/test_generator_golden.py pin the stream. The draws, their order
    and their count per provider, quarter and person are part of the
    generated data, as much as the records are: a change that adds, drops
    or reorders one draw re-draws every later person, and with them the
    fixed-seed effect-recovery and type-I studies of the acceptance suite.
    A Bernoulli trial is one ``random()`` draw whatever its probability,
    so a rate of 0 or 1 still consumes it.
    """
    calendar = calendar or StudyCalendar()
    rng = random.Random(config.seed)
    rnd = rng.random
    bits = rng.getrandbits

    providers = []
    strata: dict[str, str] = {}
    for i in range(config.n_providers):
        pid = f"dr{i:05d}"
        high = rnd() < config.high_pref_fraction
        mean = config.share_mean_high if high else config.share_mean_low
        c = config.share_concentration
        pref = rng.betavariate(mean * c, (1.0 - mean) * c)
        ptype = (
            ProviderType.GROUP_PRACTICE
            if rnd() < config.group_practice_fraction
            else ProviderType.INDIVIDUAL
        )
        providers.append((pid, ptype, high, pref))
        strata[pid] = "high" if high else "low"

    spans: list[EnrollmentSpan] = []
    pharmacy: list[PharmacyClaim] = []
    medical: list[MedicalClaim] = []
    persons: list[PersonDemographics] = []

    # Days are integer offsets; dates[d] is the date of day d, and day
    # _MARGIN_DAYS is pre_start.
    total_days = days_between(calendar.pre_start, calendar.post_end) + 1
    origin = calendar.pre_start - timedelta(days=_MARGIN_DAYS)
    dates = [origin + timedelta(days=d) for d in range(total_days + 2 * _MARGIN_DAYS)]
    post_day = _MARGIN_DAYS + days_between(calendar.pre_start, calendar.post_start)
    n_quarters = (total_days + 90) // 91
    person_counter = 0
    claim_counter = 0

    whole = int(config.patients_per_provider_quarter)
    frac = config.patients_per_provider_quarter - whole

    proc_names = sorted(config.procedure_weights)
    procedures = [(PROCEDURES[n][0], PROCEDURES[n][2]) for n in proc_names]
    proc_cum_weights = list(itertools.accumulate(
        config.procedure_weights[n] for n in proc_names
    ))
    first_dx_codes = [codes[0] for codes in DEFAULT_COMORBIDITY_MAP.values()]
    mme_per_unit = {e.drug_code: e.strength_mg_per_unit * e.mme_factor for e in FORMULARY}

    # Link-scale terms: (initial MME, refill, persistence) base values, the
    # yearly trends of each stratum, and the injected effects.
    log_mme_mean = math.log(config.initial_mme_mean)
    refill_logit = _logit(config.refill_prob)
    persistence_logit = _logit(config.persistence_prob)
    trends = {
        high: tuple(getattr(config, f"trend_{outcome}_{suffix}")
                    for outcome in ("initial_mme", "refill", "persistence"))
        for high, suffix in ((True, "exposed"), (False, "unexposed"))
    }
    injected = (math.log(config.effect_initial_mme), math.log(config.effect_refill),
                math.log(config.effect_persistence))
    not_injected = (0.0, 0.0, 0.0)
    comorbidity_prev = config.comorbidity_prev   # read 20 times per person

    for pid, ptype, high, pref in providers:
        trend_mme, trend_refill, trend_persistence = trends[high]
        for q in range(n_quarters):
            q_start = _MARGIN_DAYS + q * 91
            q_days = min(91, total_days - q * 91)
            n_patients = whole + (1 if rnd() < frac else 0)
            for _ in range(n_patients):
                person_counter += 1
                person_id = f"p{person_counter:07d}"
                service = q_start + randbelow(bits, q_days)

                cpt, inpatient_prob = procedures[weighted_index(rnd, proc_cum_weights)]
                if rnd() < inpatient_prob:
                    late = service + 1 + randbelow(bits, 4)
                    admission, discharge = dates[service], dates[late]
                    setting = Setting.INPATIENT
                else:
                    late = service
                    admission = discharge = None
                    setting = Setting.AMBULATORY

                if rnd() < config.underage_rate:
                    age = 10 + randbelow(bits, 8)
                else:
                    age = 18 + randbelow(bits, 68)
                sex = Sex.FEMALE if rnd() < config.sex_female_prob else Sex.MALE
                persons.append(PersonDemographics(person_id, dates[late].year - age, sex))

                # Enrollment; a configured fraction gets a disqualifying gap.
                start = service - 120 - randbelow(bits, 60)
                end = late + 200 + randbelow(bits, 60)
                if rnd() < config.enrollment_gap_rate:
                    if rnd() < 0.5:
                        start = service - 30 - randbelow(bits, 50)
                    else:
                        end = late + 30 + randbelow(bits, 140)
                spans.append(EnrollmentSpan(person_id, dates[start], dates[end]))

                claim_counter += 1
                medical.append(MedicalClaim(
                    f"c{claim_counter:08d}", person_id, pid, ptype, cpt,
                    dates[service], admission, discharge, setting, (),
                ))

                # Prior comorbidity diagnoses on an office-visit claim.
                dx = [code for code in first_dx_codes if rnd() < comorbidity_prev]
                for chunk_start in range(0, len(dx), 10):
                    claim_counter += 1
                    medical.append(MedicalClaim(
                        f"c{claim_counter:08d}", person_id, pid, ptype,
                        OFFICE_VISIT_CPT, dates[service - 60],
                        None, None, Setting.AMBULATORY,
                        tuple(dx[chunk_start:chunk_start + 10]),
                    ))

                if rnd() < config.antidepressant_prev:
                    pharmacy.append(PharmacyClaim(
                        person_id, dates[service - 30], "AD001", 30.0, 30
                    ))
                if rnd() < config.prior_opioid_rate:
                    pharmacy.append(PharmacyClaim(
                        person_id, dates[service - 10 - randbelow(bits, 71)], "HYD5", 10.0, 5,
                    ))

                if rnd() < config.no_fill_rate:
                    continue

                years = (late - _MARGIN_DAYS) / 365.25
                effect_mme, effect_refill, effect_persistence = (
                    injected if high and late >= post_day else not_injected
                )

                # Initial fill: drug per provider preference, quantity
                # targeting a gamma-distributed MME draw.
                log_mean = log_mme_mean + trend_mme * years + effect_mme
                target = rng.gammavariate(
                    config.initial_mme_shape,
                    math.exp(log_mean) / config.initial_mme_shape,
                )
                if rnd() < pref:
                    drug = "HYD5" if rnd() < 0.6 else "HYD10"
                else:
                    drug = NON_HYDRO_CODES[randbelow(bits, len(NON_HYDRO_CODES))]
                quantity = max(1, round(target / mme_per_unit[drug]))
                fill_offset = randbelow(bits, 5)
                pharmacy.append(PharmacyClaim(
                    person_id, dates[late + fill_offset], drug, float(quantity), 5,
                ))
                later_quantity = float(max(1, quantity // 2))

                logit = refill_logit + trend_refill * years + effect_refill
                if rnd() < 1.0 / (1.0 + math.exp(-logit)):
                    refill = late + fill_offset + 1 + randbelow(bits, 30 - fill_offset)
                    pharmacy.append(PharmacyClaim(
                        person_id, dates[refill], drug, later_quantity, 5,
                    ))

                logit = persistence_logit + trend_persistence * years + effect_persistence
                if rnd() < 1.0 / (1.0 + math.exp(-logit)):
                    pharmacy.append(PharmacyClaim(
                        person_id, dates[late + 90 + randbelow(bits, 91)], drug, later_quantity, 5,
                    ))

    store = store_from_records(spans, pharmacy, medical, persons, list(FORMULARY))
    truth = GroundTruth(
        run_id=config.run_id(),
        seed=config.seed,
        injected_effects={
            "initial_mme_7d": config.effect_initial_mme,
            "any_refill_30d": config.effect_refill,
            "persistent_use_90_180": config.effect_persistence,
        },
        provider_strata=strata,
        n_episodes=person_counter,
    )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_store(store, out_dir)
        write_json(os.path.join(out_dir, "ground_truth.json"), asdict(truth))
    return store, truth


def _is_ground_truth_json(data) -> bool:
    """What ``generate`` writes, with positive injected multipliers."""
    return conforms(data, GroundTruth) and all(v > 0 for v in data["injected_effects"].values())


def load_ground_truth(path: str) -> GroundTruth:
    return GroundTruth(**load_json(path, _is_ground_truth_json,
                                   "a ground-truth object as `simulate` writes it"))


def truth_check(truth: GroundTruth, report: dict) -> dict:
    """Compare recovered DiD interactions against injected link-scale
    effects; null effects that reach significance are logged as type-I
    events, not failures."""
    if report.get("run_id") != truth.run_id:
        raise RunMismatch(
            f"report run_id {report.get('run_id')!r} != ground truth {truth.run_id!r}"
        )
    did = report.get("did", {})
    verdicts: dict[str, dict] = {}
    for outcome, multiplier in truth.injected_effects.items():
        est = did.get(outcome)
        if est is None:
            verdicts[outcome] = {"status": "missing"}
            continue
        target = math.log(multiplier)
        covered = est["ci_low"] <= target <= est["ci_high"]
        if multiplier == 1.0:
            verdicts[outcome] = {
                "status": "null",
                "type_i_event": bool(est["significant"]),
                "ci_covers_zero": covered,
            }
        else:
            verdicts[outcome] = {
                "status": "pass" if covered else "fail",
                "injected_log_effect": target,
                "estimate": est["interaction"],
                "ci": [est["ci_low"], est["ci_high"]],
            }
    return verdicts
