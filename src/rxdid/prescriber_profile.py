"""Provider baseline hydrocodone-share profiling and classification."""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from datetime import date
from fractions import Fraction
from typing import NamedTuple

from .claims_core import (
    ClaimsError,
    ClaimsStore,
    MedicalClaim,
    OpioidIngredient,
    PharmacyClaim,
    ProviderType,
    gc_paused,
    index_anchor_dates,
    opioid_fills_in_window,
    read_reference_csv,
    write_csv,
)


class ProfileError(Exception):
    pass


class InvalidThresholds(ProfileError):
    pass


class EmptyProfileSet(ProfileError):
    pass


class AmbiguousProcedureCode(ClaimsError):
    pass


class UnknownProcedure(ClaimsError):
    pass


# Classification defaults: among providers with at least MIN_CASES index
# events, a hydrocodone share at or above HIGH_SHARE is a prescriber and
# one at or below LOW_SHARE a non-prescriber.
LOW_SHARE = Fraction(1, 4)
HIGH_SHARE = Fraction(3, 4)
MIN_CASES = 5


def check_thresholds(
    low: Fraction | float, high: Fraction | float, min_cases: int,
) -> tuple[Fraction, Fraction, int]:
    """(low, high, min_cases) with the shares as exact rationals;
    InvalidThresholds unless 0 <= low < high <= 1 and min_cases >= 1."""
    low = Fraction(low)
    high = Fraction(high)
    if not (0 <= low < high <= 1):
        raise InvalidThresholds(f"need 0 <= low < high <= 1, got low={low}, high={high}")
    if min_cases < 1:
        raise InvalidThresholds(f"min_cases must be >= 1, got {min_cases}")
    return low, high, min_cases


# Ten study procedures and their CPT codes.
DEFAULT_PROCEDURES: dict[str, frozenset[str]] = {
    "carpal_tunnel_release": frozenset({"64721", "29848"}),
    "laparoscopic_cholecystectomy": frozenset({"47562", "47563", "47564"}),
    "open_cholecystectomy": frozenset({"47600", "47605", "47610"}),
    "inguinal_hernia_repair": frozenset({"49505", "49507", "49520", "49521", "49525"}),
    "knee_arthroscopy": frozenset({"29881", "29880", "29877", "29875", "29876", "29870"}),
    "total_knee_replacement": frozenset({"27446", "27447", "27486", "27487"}),
    "total_hip_replacement": frozenset({"27130", "27132"}),
    "laparoscopic_appendectomy": frozenset({"44970"}),
    "open_appendectomy": frozenset({"44950", "44960"}),
    "breast_excision": frozenset({"19301", "19302", "19120"}),
}

# Hip-fracture diagnosis range 820.00-820.9, dot-free prefix.
HIP_FRACTURE_DX_PREFIX = "820"

OPIOID_FILL_WINDOW_DAYS = 7

PROCEDURE_COLUMNS = ["procedure_name", "cpt"]


@dataclass(frozen=True)
class ProcedureCodeSet:
    procedures: dict[str, frozenset[str]] = field(
        default_factory=lambda: dict(DEFAULT_PROCEDURES)
    )

    def __post_init__(self):
        owner: dict[str, str] = {}
        for name, codes in self.procedures.items():
            for code in sorted(codes):
                if code in owner:
                    raise AmbiguousProcedureCode(
                        f"CPT code {code} is listed under both {owner[code]} and {name}"
                    )
                owner[code] = name
        object.__setattr__(self, "_owner", owner)

    def procedure_of(self, cpt: str) -> str | None:
        return self._owner.get(cpt)

    @classmethod
    def from_file(cls, path: str) -> "ProcedureCodeSet":
        procs: dict[str, set[str]] = {}
        for name, cpt in read_reference_csv(
            path, PROCEDURE_COLUMNS, lambda row: (row[0].strip(), row[1].strip())
        ):
            procs.setdefault(name, set()).add(cpt)
        unknown = sorted(set(procs) - set(DEFAULT_PROCEDURES))
        if unknown:
            raise UnknownProcedure(f"{path}: unknown procedures {unknown}")
        return cls({name: frozenset(codes) for name, codes in procs.items()})


def write_procedures_csv(path: str, codes: ProcedureCodeSet) -> None:
    write_csv(path, PROCEDURE_COLUMNS, (
        [name, cpt] for name in sorted(codes.procedures) for cpt in sorted(codes.procedures[name])
    ))


class ProviderClass(str, enum.Enum):
    PRESCRIBER = "Prescriber"
    NON_PRESCRIBER = "NonPrescriber"
    INDETERMINATE = "Indeterminate"
    INSUFFICIENT = "Insufficient"


class IndexEvent(NamedTuple):
    """One surgical episode: the procedure claim, its anchors, and the
    oral-analgesic opioid fills on its first fill day within
    OPIOID_FILL_WINDOW_DAYS of the late anchor."""

    procedure_name: str
    claim: MedicalClaim
    early_anchor: date
    late_anchor: date
    first_opioid_fills: tuple[PharmacyClaim, ...]


class ProviderProfile(NamedTuple):
    provider_id: str
    provider_type: ProviderType
    n_events: int
    n_hydrocodone: int
    hydrocodone_share: Fraction
    provider_class: ProviderClass


def eligible_procedures(
    store: ClaimsStore, person_id: str, codes: ProcedureCodeSet
) -> list[tuple[date, date, str, MedicalClaim]]:
    """(early_anchor, late_anchor, procedure_name, claim) for each of this
    person's eligible CPTs, in (late_anchor, claim_id) order.

    Total-hip-replacement claims carrying any hip-fracture diagnosis are
    dropped here.
    """
    out = []
    for claim in store.medical.get(person_id, ()):
        name = codes.procedure_of(claim.cpt_code)
        if name is None:
            continue
        if name == "total_hip_replacement" and any(
            dx.startswith(HIP_FRACTURE_DX_PREFIX) for dx in claim.diagnoses
        ):
            continue
        out.append((*index_anchor_dates(claim), name, claim))
    if len(out) > 1:
        out.sort(key=lambda p: (p[1], p[3].claim_id))
    return out


def index_event_for(
    store: ClaimsStore, early: date, late: date, name: str, claim: MedicalClaim
) -> IndexEvent | None:
    """The episode of this procedure, or None without an opioid fill in
    days 0..OPIOID_FILL_WINDOW_DAYS after the late anchor."""
    fills = opioid_fills_in_window(store, claim.person_id, late, 0, OPIOID_FILL_WINDOW_DAYS)
    if not fills:
        return None
    first_day = fills[0][0]  # the window's fills are in date order
    first = tuple(f for offset, f, _ in fills if offset == first_day)
    return IndexEvent(name, claim, early, late, first)


@gc_paused
def find_index_events(
    store: ClaimsStore,
    codes: ProcedureCodeSet,
    window_start: date,
    window_end: date,
) -> list[IndexEvent]:
    """Procedure claims in the window with a qualifying 7-day opioid fill.

    One event per (person, late_anchor, provider); duplicate billings of
    the same triple collapse to the lowest claim_id, the first listed.
    """
    events: dict[tuple[str, date, str], IndexEvent] = {}
    for person_id in sorted(store.medical):
        for early, late, name, claim in eligible_procedures(store, person_id, codes):
            key = (person_id, late, claim.provider_id)
            if key in events or not (window_start <= late <= window_end):
                continue
            event = index_event_for(store, early, late, name, claim)
            if event is not None:
                events[key] = event
    return [events[k] for k in sorted(events)]


def event_is_hydrocodone(event: IndexEvent, store: ClaimsStore) -> bool:
    """True when any fill on the earliest qualifying fill date is hydrocodone."""
    return any(
        store.catalog[f.drug_code].opioid_ingredient is OpioidIngredient.HYDROCODONE
        for f in event.first_opioid_fills
    )


def classify_providers(
    events: list[IndexEvent],
    store: ClaimsStore,
    min_cases: int = MIN_CASES,
    low: Fraction | float = LOW_SHARE,
    high: Fraction | float = HIGH_SHARE,
) -> dict[str, ProviderProfile]:
    """Per-provider hydrocodone share and class.

    Threshold comparisons use exact rational arithmetic so boundary
    shares (exactly 0.75 / 0.25) classify per the >= / <= rules.
    """
    low, high, min_cases = check_thresholds(low, high, min_cases)
    counts: dict[str, list[int]] = {}
    ptypes: dict[str, ProviderType] = {}
    for ev in events:
        provider_id = ev.claim.provider_id
        n = counts.setdefault(provider_id, [0, 0])
        n[0] += 1
        if event_is_hydrocodone(ev, store):
            n[1] += 1
        ptypes[provider_id] = ev.claim.provider_type

    profiles: dict[str, ProviderProfile] = {}
    for provider_id in sorted(counts):
        n_events, n_hydro = counts[provider_id]
        share = Fraction(n_hydro, n_events)
        if n_events < min_cases:
            cls = ProviderClass.INSUFFICIENT
        elif share >= high:
            cls = ProviderClass.PRESCRIBER
        elif share <= low:
            cls = ProviderClass.NON_PRESCRIBER
        else:
            cls = ProviderClass.INDETERMINATE
        profiles[provider_id] = ProviderProfile(
            provider_id, ptypes[provider_id], n_events, n_hydro, share, cls
        )
    return profiles


def _quantile_lower(sorted_vals: list, q: Fraction):
    """Lower-interpolation quantile: element at floor((n-1) * q)."""
    idx = int((len(sorted_vals) - 1) * q)
    return sorted_vals[idx]


def profile_summary(profiles: dict[str, ProviderProfile], min_cases: int = MIN_CASES) -> dict:
    """Counts plus median/IQR of shares over providers with enough cases."""
    eligible = [p for p in profiles.values() if p.n_events >= min_cases]
    if not eligible:
        raise EmptyProfileSet("no provider has the minimum case count")
    shares = sorted(p.hydrocodone_share for p in eligible)
    return {
        "n_providers": len(eligible),
        "n_prescribers": sum(
            1 for p in eligible if p.provider_class is ProviderClass.PRESCRIBER
        ),
        "n_nonprescribers": sum(
            1 for p in eligible if p.provider_class is ProviderClass.NON_PRESCRIBER
        ),
        "median_share": float(_quantile_lower(shares, Fraction(1, 2))),
        "iqr": (
            float(_quantile_lower(shares, Fraction(1, 4))),
            float(_quantile_lower(shares, Fraction(3, 4))),
        ),
    }


PROFILE_COLUMNS = ["provider_id", "provider_type", "n_events", "n_hydrocodone", "share", "class"]


def write_profiles_csv(path: str, profiles: dict[str, ProviderProfile]) -> None:
    write_csv(path, PROFILE_COLUMNS, (
        [p.provider_id, p.provider_type.value, p.n_events, p.n_hydrocodone,
         f"{p.n_hydrocodone}/{p.n_events}", p.provider_class.value]
        for _, p in sorted(profiles.items())
    ))


def _parse_profile(row: list[str]) -> ProviderProfile:
    n_events, n_hydrocodone = int(row[2]), int(row[3])
    if n_events < 1 or not 0 <= n_hydrocodone <= n_events:
        raise ValueError(f"need n_events >= 1 and 0 <= n_hydrocodone <= n_events, "
                         f"got {n_events} and {n_hydrocodone}")
    num, _, den = row[4].partition("/")
    if int(den) == 0:
        raise ValueError(f"share {row[4]!r} has a zero denominator")
    share = Fraction(int(num), int(den))
    if share * n_events != n_hydrocodone:
        raise ValueError(f"share {row[4]!r} is not n_hydrocodone/n_events "
                         f"= {n_hydrocodone}/{n_events}")
    return ProviderProfile(
        row[0], ProviderType(row[1]), n_events, n_hydrocodone, share, ProviderClass(row[5]),
    )


def read_profiles_csv(path: str) -> dict[str, ProviderProfile]:
    return {
        p.provider_id: p for p in read_reference_csv(path, PROFILE_COLUMNS, _parse_profile)
    }
