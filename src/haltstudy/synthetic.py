"""Seed-deterministic synthetic panels with planted ground truth.

The generator builds minute bars whose activity magnitudes are a known
per-minute day shape times a base level, times optional log-normal
noise. Around each planted halt it scales those magnitudes by a peak
factor at t = 0 and by 1 + A * t**(-alpha) afterwards, freezes the
price through the halt, and signs the pre-halt return increments
greedily so the cumulative log return over the trend window lands on a
chosen target without touching any magnitude. Every quantity the
analysis pipeline estimates (intraday pattern, trend sign, halt type,
excess decay) is therefore known exactly in advance, which makes the
generator an end-to-end oracle: with zero noise the pipeline must give
the planted values back.

All randomness flows from one 64-bit seed through per-stock child
streams, so output is bit-identical for a fixed spec no matter how the
work is scheduled.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from .errors import OverlapViolation
from .events import (
    EligibilityConfig,
    EventSign,
    HaltRecord,
    HaltType,
    classify_halt_type,
    group_sort_key,
    write_halt_csv,
)
from .event_study import MeasureKind
from .market_data import (
    MINUTES_PER_DAY,
    Panel,
    PanelBuilder,
    TradingCalendar,
    write_bar_csv,
)

CALENDAR_START = date(2009, 1, 5)   # a Monday
# the weekdays of the whole weeks from CALENDAR_START to date.max
MAX_CALENDAR_DAYS = 5 * ((date.max - CALENDAR_START).days // 7)

DEFAULT_BASE_LEVELS: Mapping[MeasureKind, float] = {
    MeasureKind.ABSOLUTE_RETURN: 0.002,
    MeasureKind.VOLUME: 10000.0,
    MeasureKind.BID_ASK_SPREAD: 0.02,
}


def default_pattern() -> np.ndarray:
    """U-shaped day profile: 1.5 at the session edges, 0.8 midsession."""
    p = (np.arange(1, MINUTES_PER_DAY + 1) - 1.0) / (MINUTES_PER_DAY - 1.0)
    return 0.8 + 0.7 * (2.0 * p - 1.0) ** 2


@dataclass(frozen=True)
class MeasureRelaxation:
    """Planted post-halt shape of one measure.

    The measure's magnitude is multiplied by ``peak`` at t = 0 and by
    ``1 + amplitude * t**(-alpha)`` over the default post window, so after
    deseasonalization the excess decays as amplitude * t**(-alpha).
    """

    peak: float
    amplitude: float
    alpha: float

    def __post_init__(self) -> None:
        if self.peak <= 0 or self.amplitude <= 0 or self.alpha <= 0:
            raise ValueError("relaxation parameters must be positive")


@dataclass(frozen=True)
class PlantedEvent:
    """One halt to plant, addressed by calendar day index (0-based).

    ``trend_magnitude`` is the signed cumulative log return realized
    over the default trend window before the halt; it must be nonzero and
    should be large against typical per-minute returns so the sign stays
    recoverable under noise.
    """

    stock_id: str
    begin_day: int
    begin_minute: int
    resume_day: int
    resume_minute: int
    trend_magnitude: float
    relaxations: Mapping[MeasureKind, MeasureRelaxation]

    def __post_init__(self) -> None:
        if self.trend_magnitude == 0:
            raise ValueError("trend_magnitude must be nonzero")
        missing = [m for m in MeasureKind if m not in self.relaxations]
        if missing:
            raise ValueError(f"relaxations missing for {missing}")

    @property
    def sign(self) -> EventSign:
        return (EventSign.POSITIVE if self.trend_magnitude > 0
                else EventSign.NEGATIVE)

    def record(self, calendar: TradingCalendar) -> HaltRecord:
        days = calendar.trading_days
        return HaltRecord(self.stock_id, days[self.begin_day],
                          self.begin_minute, days[self.resume_day],
                          self.resume_minute)


@dataclass(frozen=True)
class SyntheticSpec:
    """Full description of one synthetic dataset.

    Stocks are named SYN0000..; every planted event must reference one
    of them. ``sigma`` holds per-measure log-normal noise levels (0
    means exactly deterministic magnitudes).
    """

    n_stocks: int
    n_days: int
    seed: int
    events: tuple[PlantedEvent, ...] = ()
    pattern_shape: np.ndarray = field(default_factory=default_pattern)
    sigma: Mapping[MeasureKind, float] = field(default_factory=dict)
    base_level: Mapping[MeasureKind, float] = field(
        default_factory=lambda: dict(DEFAULT_BASE_LEVELS))
    initial_price: float = 20.0

    def __post_init__(self) -> None:
        if self.n_stocks < 1 or self.n_days < 1:
            raise ValueError("need at least one stock and one day")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        shape = np.asarray(self.pattern_shape, float)
        if shape.shape != (MINUTES_PER_DAY,):
            raise ValueError("pattern_shape must cover one full session")
        if not np.all(shape > 0):
            raise ValueError("pattern_shape must be positive")
        object.__setattr__(self, "pattern_shape", shape)
        object.__setattr__(self, "events", tuple(self.events))
        if self.n_days > MAX_CALENDAR_DAYS:
            raise ValueError(f"n_days must be at most {MAX_CALENDAR_DAYS}: "
                             f"{self.n_days} weekdays from {CALENDAR_START} "
                             f"run past {date.max}")
        for m, s in self.sigma.items():
            if not 0 <= s < math.inf:
                raise ValueError(f"noise level for {m} must be finite and "
                                 f"non-negative, got {s}")
        for m in MeasureKind:
            if self.base_level.get(m, 0.0) <= 0:
                raise ValueError(f"base level for {m} must be positive")
        if self.initial_price <= 0:
            raise ValueError("initial_price must be positive")

    @property
    def stock_ids(self) -> tuple[str, ...]:
        return tuple(f"SYN{i:04d}" for i in range(self.n_stocks))

    def noise_sigma(self, measure: MeasureKind) -> float:
        return float(self.sigma.get(measure, 0.0))


@dataclass(frozen=True)
class PlantedTruth:
    """A planted event with its implied classification."""

    event: PlantedEvent
    record: HaltRecord
    halt_type: HaltType
    sign: EventSign


@dataclass(frozen=True)
class GroundTruth:
    """Everything a verifier needs to check a generated dataset."""

    spec: SyntheticSpec
    calendar: TradingCalendar
    rows: tuple[PlantedTruth, ...]

    def to_json_dict(self) -> dict:
        events = []
        for row in self.rows:
            rec = row.record
            events.append({
                "stock_id": rec.stock_id,
                "halt_date": rec.halt_day.isoformat(),
                "halt_minute": rec.halt_minute,
                "resume_date": rec.resume_day.isoformat(),
                "resume_minute": rec.resume_minute,
                "halt_type": row.halt_type.value,
                "sign": row.sign.value,
                "trend_magnitude": row.event.trend_magnitude,
                "relaxations": {
                    m.value: {"peak": r.peak, "amplitude": r.amplitude,
                              "alpha": r.alpha}
                    for m, r in sorted(row.event.relaxations.items(),
                                       key=lambda kv: kv[0].value)
                },
            })
        return {
            "seed": self.spec.seed,
            "n_stocks": self.spec.n_stocks,
            "n_days": self.spec.n_days,
            "initial_price": self.spec.initial_price,
            "sigma": {m.value: self.spec.noise_sigma(m) for m in MeasureKind},
            "base_level": {m.value: float(self.spec.base_level[m])
                           for m in MeasureKind},
            "events": events,
        }


def make_calendar(n_days: int) -> TradingCalendar:
    """Consecutive weekdays starting at CALENDAR_START, a Monday."""
    return TradingCalendar(tuple(
        CALENDAR_START + timedelta(days=7 * (i // 5) + i % 5)
        for i in range(n_days)))


def _validate_events(spec: SyntheticSpec, calendar: TradingCalendar,
                     ) -> dict[str, list[PlantedEvent]]:
    known = set(spec.stock_ids)
    n = calendar.n_minutes
    per_stock: dict[str, list[PlantedEvent]] = {}
    for ev in spec.events:
        if ev.stock_id not in known:
            raise ValueError(f"event references unknown stock {ev.stock_id}")
        for d in (ev.begin_day, ev.resume_day):
            if not 0 <= d < spec.n_days:
                raise ValueError(f"{ev.stock_id}: day index {d} out of range")
        per_stock.setdefault(ev.stock_id, []).append(ev)
    trend, relax = EligibilityConfig.trend_window, EligibilityConfig.post_window
    for stock_id, evs in per_stock.items():
        evs.sort(key=lambda e: (e.begin_day, e.begin_minute))
        spans = []
        for ev in evs:
            rec = ev.record(calendar)
            g_begin = rec.global_begin(calendar)
            g_resume = rec.global_resume(calendar)
            if g_begin - trend < 1:
                raise ValueError(
                    f"{stock_id}: no room for the trend window before the halt")
            if g_resume + relax > n - 1:
                raise ValueError(
                    f"{stock_id}: no room for the relaxation window after resume")
            spans.append((g_begin, g_resume))
        for (_, prev_resume), (next_begin, _) in zip(spans, spans[1:]):
            # the next event's trend window must clear the previous
            # event's relaxation window entirely
            if next_begin - trend <= prev_resume + relax:
                raise OverlapViolation(
                    f"{stock_id}: planted events closer than the trend "
                    "plus relaxation windows allow")
    return per_stock


def _generate_stock(stock_id: str, rng: np.random.Generator,
                    spec: SyntheticSpec, calendar: TradingCalendar,
                    events: Sequence[PlantedEvent],
                    builder: PanelBuilder) -> None:
    n = calendar.n_minutes
    day_shape = np.tile(spec.pattern_shape, calendar.n_days)
    mags: dict[MeasureKind, np.ndarray] = {}
    for measure in MeasureKind:
        level = float(spec.base_level[measure]) * day_shape
        sigma = spec.noise_sigma(measure)
        if sigma > 0:
            level = level * np.exp(sigma * rng.standard_normal(n))
        mags[measure] = level
    signs = rng.integers(0, 2, n) * 2 - 1
    halted = np.zeros(n, dtype=bool)

    ret_mag = mags[MeasureKind.ABSOLUTE_RETURN]
    post_window = EligibilityConfig.post_window
    for ev in events:
        rec = ev.record(calendar)
        g_begin = rec.global_begin(calendar)
        g_resume = rec.global_resume(calendar)
        halted[g_begin:g_resume] = True
        for measure in MeasureKind:
            relax = ev.relaxations[measure]
            mags[measure][g_resume] *= relax.peak
            t = np.arange(1.0, post_window + 1.0)
            post = slice(g_resume + 1, g_resume + post_window + 1)
            mags[measure][post] *= 1.0 + relax.amplitude * t ** (-relax.alpha)
        # steer the pre-halt increments along a linear ramp to the trend
        # target: flips only signs, never magnitudes, so the |return|
        # pattern stays intact, and every sub-window ending at the halt
        # sees a proportional share of the trend
        running = 0.0
        target = ev.trend_magnitude
        width = EligibilityConfig.trend_window
        for k, g in enumerate(range(g_begin - width, g_begin)):
            goal = target * (k + 1) / width
            step = 1 if running < goal else -1
            signs[g] = step
            running += step * ret_mag[g]

    inc = signs * ret_mag
    inc[0] = 0.0
    inc[halted] = 0.0
    lnp = math.log(spec.initial_price) + np.cumsum(inc)
    price = np.exp(lnp)
    half_spread = 0.5 * mags[MeasureKind.BID_ASK_SPREAD]
    builder.add_stock_arrays(stock_id, price, mags[MeasureKind.VOLUME],
                             price - half_spread, price + half_spread,
                             ~halted)


def generate_panel(spec: SyntheticSpec,
                   ) -> tuple[Panel, list[HaltRecord], GroundTruth]:
    """Build the panel, its halt registry and the planted ground truth.

    Halted minutes carry no bars and the price is frozen across them,
    so the first post-resumption bar holds the entire across-halt jump.
    """
    calendar = make_calendar(spec.n_days)
    per_stock = _validate_events(spec, calendar)
    builder = PanelBuilder(calendar)
    children = np.random.SeedSequence(spec.seed).spawn(spec.n_stocks)
    for stock_id, child in zip(spec.stock_ids, children):
        _generate_stock(stock_id, np.random.default_rng(child), spec,
                        calendar, per_stock.get(stock_id, ()), builder)
    panel = builder.build()
    ordered = sorted(spec.events,
                     key=lambda e: (e.stock_id, e.begin_day, e.begin_minute))
    rows = []
    for ev in ordered:
        rec = ev.record(calendar)
        rows.append(PlantedTruth(ev, rec, classify_halt_type(rec, calendar),
                                 ev.sign))
    records = [row.record for row in rows]
    return panel, records, GroundTruth(spec, calendar, tuple(rows))


DEFAULT_RELAXATIONS: Mapping[tuple[HaltType, EventSign],
                             Mapping[MeasureKind, MeasureRelaxation]] = {
    (HaltType.INTRADAY, EventSign.POSITIVE): {
        MeasureKind.ABSOLUTE_RETURN: MeasureRelaxation(8.0, 2.5, 0.89),
        MeasureKind.VOLUME: MeasureRelaxation(5.0, 1.5, 0.45),
        MeasureKind.BID_ASK_SPREAD: MeasureRelaxation(2.0, 0.8, 1.19),
    },
    (HaltType.INTRADAY, EventSign.NEGATIVE): {
        MeasureKind.ABSOLUTE_RETURN: MeasureRelaxation(8.0, 2.5, 0.61),
        MeasureKind.VOLUME: MeasureRelaxation(5.0, 1.5, 0.37),
        MeasureKind.BID_ASK_SPREAD: MeasureRelaxation(2.0, 0.8, 1.59),
    },
    (HaltType.ONE_DAY, EventSign.POSITIVE): {
        MeasureKind.ABSOLUTE_RETURN: MeasureRelaxation(8.0, 2.5, 0.89),
        MeasureKind.VOLUME: MeasureRelaxation(5.0, 1.5, 0.80),
        MeasureKind.BID_ASK_SPREAD: MeasureRelaxation(2.0, 0.8, 1.00),
    },
    (HaltType.ONE_DAY, EventSign.NEGATIVE): {
        MeasureKind.ABSOLUTE_RETURN: MeasureRelaxation(8.0, 2.5, 0.54),
        MeasureKind.VOLUME: MeasureRelaxation(5.0, 1.5, 0.55),
        MeasureKind.BID_ASK_SPREAD: MeasureRelaxation(2.0, 0.8, 1.10),
    },
    (HaltType.INTER_DAY, EventSign.POSITIVE): {
        MeasureKind.ABSOLUTE_RETURN: MeasureRelaxation(8.0, 2.5, 0.96),
        MeasureKind.VOLUME: MeasureRelaxation(5.0, 1.5, 0.60),
        MeasureKind.BID_ASK_SPREAD: MeasureRelaxation(2.0, 0.8, 1.20),
    },
    (HaltType.INTER_DAY, EventSign.NEGATIVE): {
        MeasureKind.ABSOLUTE_RETURN: MeasureRelaxation(8.0, 2.5, 1.15),
        MeasureKind.VOLUME: MeasureRelaxation(5.0, 1.5, 0.66),
        MeasureKind.BID_ASK_SPREAD: MeasureRelaxation(2.0, 0.8, 1.30),
    },
}


def _event_layout(halt_type: HaltType, halt_day: int) -> tuple[int, int, int, int]:
    # begin day, begin minute, resume day, resume minute
    if halt_type is HaltType.INTRADAY:
        return halt_day, 61, halt_day, 121
    if halt_type is HaltType.ONE_DAY:
        return halt_day, 1, halt_day + 1, 1
    return halt_day, 1, halt_day + 2, 1


def build_group_spec(group_sizes: Mapping[tuple[HaltType, EventSign], int],
                     seed: int,
                     relaxations: Mapping[tuple[HaltType, EventSign],
                                          Mapping[MeasureKind,
                                                  MeasureRelaxation]]
                     | None = None,
                     sigma: float = 0.0,
                     trend_magnitude: float = 0.08,
                     lookback_days: int = EligibilityConfig.lookback_days,
                     ) -> SyntheticSpec:
    """Spec with one stock per event and uniform parameters per group.

    Every event's halt begins on the day after ``lookback_days`` history
    days; intraday halts pause 10:31-13:00 the same day, one-day and
    two-day halts start at the open and resume at an open. The panel is
    sized so every event clears all eligibility filters.
    """
    if relaxations is None:
        relaxations = DEFAULT_RELAXATIONS
    halt_day = lookback_days
    n_days = lookback_days + 3
    groups = sorted(group_sizes.items(), key=lambda kv: group_sort_key(*kv[0]))
    events = []
    stock_no = 0
    for (halt_type, sign), size in groups:
        if size < 1:
            raise ValueError("group sizes must be positive")
        b_day, b_min, r_day, r_min = _event_layout(halt_type, halt_day)
        magnitude = (trend_magnitude if sign is EventSign.POSITIVE
                     else -trend_magnitude)
        for _ in range(size):
            events.append(PlantedEvent(f"SYN{stock_no:04d}", b_day, b_min,
                                       r_day, r_min, magnitude,
                                       relaxations[(halt_type, sign)]))
            stock_no += 1
    return SyntheticSpec(n_stocks=stock_no, n_days=n_days, seed=seed,
                         events=tuple(events),
                         sigma={m: sigma for m in MeasureKind})


def write_ground_truth(truth: GroundTruth, stream: IO[str]) -> None:
    """Serialize planted parameters as stable, sorted JSON."""
    json.dump(truth.to_json_dict(), stream, indent=2, sort_keys=True)
    stream.write("\n")


def write_synthetic_dataset(spec: SyntheticSpec, out_dir: str | Path) -> None:
    """Emit bars.csv, halts.csv, calendar.txt and ground_truth.json."""
    panel, records, truth = generate_panel(spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "bars.csv", "w", newline="") as fh:
        write_bar_csv(panel, fh)
    with open(out / "halts.csv", "w", newline="") as fh:
        write_halt_csv(records, fh)
    with open(out / "calendar.txt", "w") as fh:
        for day in truth.calendar.trading_days:
            fh.write(day.isoformat() + "\n")
    with open(out / "ground_truth.json", "w") as fh:
        write_ground_truth(truth, fh)
