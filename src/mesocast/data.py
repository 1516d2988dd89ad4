"""Series handling, CSV interchange and the synthetic highway corpus.

Ingest is whole-array work.  ``read_csv`` reads a file's bytes, decodes
them once, translates CR and CRLF line ends only when the text holds a CR,
and parses it in one ``np.loadtxt`` pass into a (minute, 21 speeds) record
array; only a file that fails it is bisected, with more loadtxt calls, down
to its first bad line, so every rejection names a line without a second
parser.
``build_windows`` returns ``Windows``, read-only strided views of the
series that slice (``[::stride]``) into more views; ``stack_windows``
copies just the rows asked for, which only training's staging does.

The measured quantity is the per-minute mean speed over 21 consecutive
segments of an 11.4 km highway stretch.  Real feeds being proprietary, the
corpus here is produced by a cell-transmission simulator (Godunov scheme on
the kinematic-wave model with a triangular fundamental diagram): inflow
demand ramps through a morning peak, a capacity drop at one segment spawns
a bottleneck whose queue propagates upstream, and congestion dissipates
when demand falls.  Per-segment speeds come from the local density through
the diagram, plus Gaussian measurement noise.

Vehicle bookkeeping uses a fixed-point trick: cell contents are integer
multiples of 2^-26 vehicles stored in float64, and every interface transfer
is rounded to that grid before it is applied.  All updates are then exact
integer arithmetic, so conservation holds bitwise at every substep.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .seeding import block_rng

NUM_SEGMENTS = 21
ROAD_KM = 11.4
V_REF_MPH = 80.0               # normalisation reference
MAX_SPEED_MPH = 90.0
SPEED_CEILING_MPH = 200.0      # read_csv's limit: past any highway mean, far from overflow
MPH_TO_KM_PER_MIN = 1.609344 / 60.0
# a count that sizes an array (a split's speeds, all hard windows together,
# the latency benchmark's timings, a model's parameters) keeps it within
# 512 MiB of float64 values
MAX_ARRAY_VALUES = 1 << 26

CSV_HEADER = ["minute"] + [f"seg{i:02d}" for i in range(NUM_SEGMENTS)]

_FP_SCALE = float(1 << 26)     # fixed-point vehicle units


# ---------------------------------------------------------------------------
# series, windows, normalisation
# ---------------------------------------------------------------------------


@dataclass
class Series:
    """Chronological stack of velocity fields (per-segment speeds, mph)."""

    minutes: np.ndarray          # (T,) int64, strictly increasing
    speeds: np.ndarray           # (T, NUM_SEGMENTS) mph

    def __post_init__(self):
        self.minutes = np.asarray(self.minutes, dtype=np.int64)
        self.speeds = np.asarray(self.speeds, dtype=np.float64)
        if self.speeds.ndim != 2 or self.speeds.shape[1] != NUM_SEGMENTS:
            raise ValueError(f"speeds must be (T, {NUM_SEGMENTS}), got {self.speeds.shape}")
        if len(self.minutes) != len(self.speeds):
            raise ValueError("minutes and speeds lengths differ")
        # compared, not differenced: a difference of far-apart int64 minutes wraps
        if np.any(self.minutes[1:] <= self.minutes[:-1]):
            raise ValueError("minutes must be strictly increasing")

    def __len__(self):
        return len(self.minutes)


@dataclass(frozen=True, eq=False)
class Windows:
    """A run of windows as read-only strided views of one series.  Slicing
    gives another view; nothing is copied until ``stack_windows``."""

    inputs: np.ndarray           # (count, s, NUM_SEGMENTS)
    targets: np.ndarray          # (count, horizon, NUM_SEGMENTS)

    def __len__(self):
        return len(self.inputs)

    def __getitem__(self, index: slice) -> "Windows":
        return Windows(self.inputs[index], self.targets[index])


def _rolling(rows: np.ndarray, count: int, length: int) -> np.ndarray:
    """(count, length, 21) read-only view whose entry i is rows[i:i + length]."""
    step, cell = rows.strides
    return np.lib.stride_tricks.as_strided(rows, shape=(count, length, rows.shape[1]),
                                           strides=(step, step, cell), writeable=False)


def build_windows(series: Series, s: int, horizon: int) -> Windows:
    """All stride-1 windows; requires minute-consecutive data."""
    if s < 1 or horizon < 0:
        raise ValueError(f"invalid window spec s={s}, horizon={horizon}")
    T = len(series)
    if T < s + horizon:
        raise ValueError(f"series too short: {T} frames < s+horizon = {s + horizon}")
    if T > 1 and np.any(np.diff(series.minutes) != 1):
        raise ValueError("series minutes are not consecutive")
    count = T - s - horizon + 1
    return Windows(_rolling(series.speeds, count, s), _rolling(series.speeds[s:], count, horizon))


def stack_windows(windows: Windows) -> tuple[np.ndarray, np.ndarray]:
    """(B, s, 21) inputs and (B, horizon, 21) targets, copied into arrays of
    their own."""
    return windows.inputs.copy(), windows.targets.copy()


def normalize(speeds):
    return np.asarray(speeds, dtype=np.float64) / V_REF_MPH


def denormalize(values):
    return np.asarray(values, dtype=np.float64) * V_REF_MPH


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


# one data row as written: the minute, then the 21 speeds at 12 significant digits
_ROW_FORMAT = "%d" + ",%.12g" * NUM_SEGMENTS + "\n"


def write_csv(series: Series, path) -> None:
    """Header ``minute,seg00..seg20``, one row per minute, 12 significant
    digits, newline-terminated UTF-8 rows; one ``%``-format per row."""
    text = "".join([_ROW_FORMAT % (minute, *row) for minute, row
                    in zip(series.minutes.tolist(), series.speeds.tolist())])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        fh.write(text)


# one data row: the minute, then the 21 speeds
_ROW = np.dtype([("minute", np.int64), ("speeds", np.float64, (NUM_SEGMENTS,))])


def _parse(rows: list[str]) -> np.ndarray | None:
    """``rows`` as one ``_ROW`` array, or None when a row does not parse.
    loadtxt skips empty rows (and warns when there is nothing else), so a
    short result means one was there."""
    if not rows:
        return np.empty(0, _ROW)
    if not any(rows):
        return None
    try:
        table = np.loadtxt(rows, delimiter=",", dtype=_ROW, comments=None, ndmin=1)
    except ValueError:
        return None
    return table if len(table) == len(rows) else None


def _first_malformed(rows: list[str]) -> int:
    """Index of the first row that does not parse; ``_parse(rows)`` has
    failed, so there is one.  The bisection parses about len(rows) rows."""
    lo, hi = 0, len(rows)    # rows[:lo] parse, rows[lo:hi] hold one that does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _parse(rows[lo:mid]) is None:
            hi = mid
        else:
            lo = mid
    return lo


def _malformed(row: str, lineno: int) -> ValueError:
    """The rejection of a row that does not parse, checked in the order
    column count, blank cell, value."""
    cells = row.split(",") if row else []
    if len(cells) != 1 + NUM_SEGMENTS:
        return ValueError(f"line {lineno}: expected {1 + NUM_SEGMENTS} columns, got {len(cells)}")
    if any(cell.strip() == "" for cell in cells):
        return ValueError(f"line {lineno}: blank cell")
    return ValueError(f"line {lineno}: unparseable value")


def read_csv(path) -> Series:
    """Strict inverse of ``write_csv``, parsed in one vectorized pass;
    malformed rows and speeds outside 0..``SPEED_CEILING_MPH`` are rejected
    with their line number.  Lines end in LF, CRLF or CR, and cells
    are unquoted ASCII numerals, so a byte that is not UTF-8, read as a lone
    surrogate, fails its row or the header like any other stray character."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8", "surrogateescape")
    if not text:
        raise ValueError("empty file: missing header")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()              # the last line's terminator
    header = lines[0].split(",") if lines[0] else []
    if header != CSV_HEADER:
        raise ValueError(f"line 1: bad header {header[:3]}..., expected {CSV_HEADER[:3]}...")
    rows = lines[1:]
    table = _parse(rows)
    stop = len(rows)
    if table is None:
        stop = _first_malformed(rows)
        table = _parse(rows[:stop])
    # rows[:stop] parsed: a minute going back among them comes first
    minutes = table["minute"].copy()
    back = np.flatnonzero(minutes[1:] <= minutes[:-1])
    if len(back):
        row = int(back[0]) + 1
        raise ValueError(f"line {row + 2}: minute {int(minutes[row])} not increasing")
    if stop < len(rows):
        raise _malformed(rows[stop], stop + 2)
    speeds = table["speeds"].copy()
    bad = ~((speeds >= 0.0) & (speeds <= SPEED_CEILING_MPH))      # NaN fails both
    if bad.any():
        row, seg = np.argwhere(bad)[0]
        raise ValueError(f"line {row + 2}: speed {float(speeds[row, seg])} at seg{seg:02d} "
                         f"is not a finite non-negative number up to {SPEED_CEILING_MPH:g} mph")
    return Series(minutes=minutes, speeds=speeds)


# ---------------------------------------------------------------------------
# cell-transmission simulator
# ---------------------------------------------------------------------------


class Bottleneck(NamedTuple):
    segment: int
    capacity_factor: float
    start_minute: int
    end_minute: int


@dataclass(frozen=True)
class CtmConfig:
    cell_length_km: float = ROAD_KM / NUM_SEGMENTS
    free_flow_mph: float = 70.0
    wave_speed_mph: float = 15.0
    jam_density: float = 110.0                     # veh/km, lane aggregate
    demand: tuple[tuple[int, float], ...] = ((0, 10.0),)  # (start minute, veh/min)
    bottleneck: Bottleneck | None = None
    noise_std_mph: float = 1.5
    seed: int = 0
    substeps_per_minute: int = 4

    @property
    def free_flow_kpm(self) -> float:
        return self.free_flow_mph * MPH_TO_KM_PER_MIN

    @property
    def wave_speed_kpm(self) -> float:
        return self.wave_speed_mph * MPH_TO_KM_PER_MIN

    @property
    def capacity(self) -> float:
        """veh/min; apex of the triangular diagram."""
        vf, w = self.free_flow_kpm, self.wave_speed_kpm
        return vf * w * self.jam_density / (vf + w)

    @property
    def critical_density(self) -> float:
        return self.capacity / self.free_flow_kpm

    def validate(self) -> None:
        """Raise a ValueError "<field> must ..." for a value the simulator cannot
        run exactly; the CFL bounds and non-negative rates rule out overdraw."""
        # the speeds in km/min, as the simulator uses them: a tiny mph underflows to 0
        diagram = {"cell_length_km": self.cell_length_km, "free_flow_mph": self.free_flow_kpm,
                   "wave_speed_mph": self.wave_speed_kpm, "jam_density": self.jam_density}
        for name, value in diagram.items():
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.jam_density * self.cell_length_km >= 2.0 ** 21:
            raise ValueError("jam_density must keep a full cell under 2^21 vehicles, so that "
                             f"fixed-point transfers round exactly, got {self.jam_density}")
        if self.substeps_per_minute < 1:
            raise ValueError(f"substeps_per_minute must be >= 1, got {self.substeps_per_minute}")
        speed = max("free_flow_mph", "wave_speed_mph", key=diagram.get)
        if diagram[speed] / self.substeps_per_minute > self.cell_length_km:
            raise ValueError(f"{speed} and substeps_per_minute must meet the CFL bound, but "
                             f"{speed} * dt = {diagram[speed] / self.substeps_per_minute:.3f} km "
                             f"exceeds the cell length {self.cell_length_km:.3f} km")
        if not 0 <= self.noise_std_mph < math.inf:
            raise ValueError(f"noise_std_mph must be finite and >= 0, got {self.noise_std_mph}")
        starts = [minute for minute, _ in self.demand]
        if starts[:1] != [0] or any(b >= a for a, b in zip(starts[1:], starts)):
            raise ValueError("demand must start at minute 0, its minutes increasing")
        if not all(rate >= 0 for _, rate in self.demand):
            raise ValueError("demand rates must be >= 0")
        b = self.bottleneck
        if b is not None and not 0 <= b.segment < NUM_SEGMENTS:
            raise ValueError(f"bottleneck segment must be in 0..{NUM_SEGMENTS - 1}, "
                             f"got {b.segment}")
        if b is not None and not 0 < b.capacity_factor <= 1:
            raise ValueError("bottleneck capacity_factor must be in (0, 1]")


def _demand_rate(schedule, minute: int) -> float:
    """Rate of the last anchor at or before ``minute`` (the first before it)."""
    return schedule[max(bisect_right(schedule, minute, key=itemgetter(0)) - 1, 0)][1]


class CtmSim:
    """Stepped simulator exposing fixed-point bookkeeping for tests."""

    def __init__(self, cfg: CtmConfig, initial_density: np.ndarray | None = None):
        cfg.validate()
        self.cfg = cfg
        dens = (np.zeros(NUM_SEGMENTS) if initial_density is None
                else np.asarray(initial_density, dtype=np.float64))
        if dens.shape != (NUM_SEGMENTS,):
            raise ValueError(f"initial density must have {NUM_SEGMENTS} entries")
        if np.any(dens < 0) or np.any(dens > cfg.jam_density):
            raise ValueError("initial density outside [0, jam_density]")
        # integer fixed-point vehicle counts (exact in float64)
        self.counts = np.rint(dens * cfg.cell_length_km * _FP_SCALE)
        self.dt = 1.0 / cfg.substeps_per_minute
        self.last_in = 0.0
        self.last_out = 0.0

    @property
    def densities(self) -> np.ndarray:
        return self.counts / (_FP_SCALE * self.cfg.cell_length_km)

    def speeds_mph(self) -> np.ndarray:
        cfg = self.cfg
        rho = self.densities
        v = np.full(NUM_SEGMENTS, cfg.free_flow_mph)
        congested = rho > cfg.critical_density
        with np.errstate(divide="ignore", invalid="ignore"):
            v_c = cfg.wave_speed_kpm * (cfg.jam_density - rho) / rho / MPH_TO_KM_PER_MIN
        v[congested] = np.maximum(v_c[congested], 0.0)
        return np.minimum(v, cfg.free_flow_mph)

    def substep(self, minute: int) -> None:
        """One Godunov transfer: interface flux = min(upstream demand,
        downstream supply), quantised to the fixed-point grid."""
        cfg = self.cfg
        rho = self.densities
        cap = cfg.capacity
        send = np.minimum(cfg.free_flow_kpm * rho, cap)
        room = np.minimum(cap, cfg.wave_speed_kpm * (cfg.jam_density - rho))

        flux = np.empty(NUM_SEGMENTS + 1)
        flux[0] = min(_demand_rate(cfg.demand, minute), room[0])
        flux[1:NUM_SEGMENTS] = np.minimum(send[:-1], room[1:])
        flux[NUM_SEGMENTS] = send[-1]
        b = cfg.bottleneck
        if b is not None and b.start_minute <= minute < b.end_minute:
            flux[b.segment] = min(flux[b.segment], b.capacity_factor * cap)

        # no overdraw: validate's bounds keep each transfer in [0, sender's count]
        transfer = np.rint(flux * (self.dt * _FP_SCALE))
        self.counts += transfer[:-1]
        self.counts -= transfer[1:]
        self.last_in, self.last_out = float(transfer[0]), float(transfer[-1])


def simulate_into(sim: CtmSim, minutes: int, noise_rng: np.random.Generator,
                  timestamp_start: int = 0, schedule_start: int = 0) -> Series:
    """Advance ``sim`` by ``minutes``, sampling speeds at the end of each
    minute, then adding measurement noise and clamping; the demand/bottleneck
    schedule runs on its own clock so recorded timestamps can offset freely
    (multi-day runs)."""
    cfg = sim.cfg
    speeds = np.empty((minutes, NUM_SEGMENTS))
    for m in range(minutes):
        minute = schedule_start + m
        for _ in range(cfg.substeps_per_minute):
            sim.substep(minute)
        speeds[m] = sim.speeds_mph()
    if cfg.noise_std_mph > 0:
        speeds = speeds + noise_rng.normal(0.0, cfg.noise_std_mph, speeds.shape)
    np.clip(speeds, 0.0, MAX_SPEED_MPH, out=speeds)
    return Series(minutes=np.arange(timestamp_start, timestamp_start + minutes, dtype=np.int64),
                  speeds=speeds)


# ---------------------------------------------------------------------------
# corpus generation
# ---------------------------------------------------------------------------


MINUTES_PER_DAY = 1440


@dataclass(frozen=True)
class CorpusSizes:
    train_days: int = 35
    easy_days: int = 6
    hard_windows: int = 4
    hard_minutes: int = 440

    def __post_init__(self):
        # every split is read, and the hard metric is a mean over the hard windows
        for name, count in vars(self).items():
            if count < 1:
                raise ValueError(f"{name} must be >= 1, got {count}")
        most_days = MAX_ARRAY_VALUES // (MINUTES_PER_DAY * NUM_SEGMENTS)
        for name, days in (("train_days", self.train_days), ("easy_days", self.easy_days)):
            if days > most_days:
                raise ValueError(f"{name} must be at most {most_days} (a split of "
                                 f"{MAX_ARRAY_VALUES} speeds), got {days}")
        if self.hard_windows * self.hard_minutes * NUM_SEGMENTS > MAX_ARRAY_VALUES:
            raise ValueError(f"hard_windows and hard_minutes must keep the hard windows within "
                             f"{MAX_ARRAY_VALUES} speeds, got {self.hard_windows} windows of "
                             f"{self.hard_minutes} minutes")


@dataclass
class Corpus:
    train: Series | None         # None where only the held-out sets are read
    easy: Series
    hard: list[Series] = field(default_factory=list)


CONGESTION_SPEED_MPH = 40.0
CONGESTION_SPAN = 3
CONGESTION_MINUTES = 30


def has_sustained_congestion(series: Series,
                             speed=CONGESTION_SPEED_MPH,
                             span=CONGESTION_SPAN,
                             duration=CONGESTION_MINUTES) -> bool:
    """True when some ``span`` adjacent segments all stay under ``speed`` for
    ``duration`` consecutive minutes."""
    slow = np.lib.stride_tricks.sliding_window_view(series.speeds < speed, span, axis=1)
    # hits[t, j]: minutes before t in which segments j..j+span-1 were all slow
    hits = np.cumsum(np.pad(slow.all(axis=2), ((1, 0), (0, 0))), axis=0)
    return bool(np.any(hits[duration:] - hits[:-duration] == duration))


def _daily_demand_anchors(rng, capacity, peak_scale) -> tuple[tuple[int, float], ...]:
    """Piecewise-constant anchors (15-minute grid) for one day: quiet night,
    morning ramp to a near-capacity peak, midday plateau, evening bump."""
    points = [
        (0, 0.18), (240, 0.22), (300, 0.45),
        (345, peak_scale), (510, peak_scale),
        (570, 0.55), (720, 0.50), (945, 0.62),
        (1080, 0.55), (1260, 0.30), (1439, 0.20),
    ]
    mins = np.arange(0, MINUTES_PER_DAY, 15)
    base = np.interp(mins, [p[0] for p in points], [p[1] for p in points]) * capacity
    jitter = rng.normal(1.0, 0.03, len(mins))
    rates = np.clip(base * jitter, 0.05 * capacity, 1.2 * capacity)
    return tuple((int(m), float(r)) for m, r in zip(mins, rates))


def _day_config(base: CtmConfig, rng, seed, hard: bool) -> CtmConfig:
    if hard:
        peak_scale = rng.uniform(0.93, 1.00)
        segment = int(rng.integers(11, 16))
        factor = rng.uniform(0.40, 0.52)
        start = int(rng.integers(330, 370))
        end = start + int(rng.integers(210, 300))
    else:
        peak_scale = rng.uniform(0.86, 0.95)
        segment = int(rng.integers(10, 18))
        factor = rng.uniform(0.55, 0.72)
        start = int(rng.integers(330, 370))
        end = int(rng.integers(495, 545))
    return replace(
        base,
        demand=_daily_demand_anchors(rng, base.capacity, peak_scale),
        bottleneck=Bottleneck(segment, factor, start, end),
        seed=seed,
    )


def _simulate_days(base: CtmConfig, days: int, seed: int, label: str) -> Series:
    """Consecutive days, density carried across midnight; each day draws its
    own demand profile and bottleneck placement."""
    sim = CtmSim(replace(base, demand=((0, 0.0),), bottleneck=None))
    chunks = []
    for day in range(days):
        cfg = _day_config(base, block_rng(seed, f"{label}-day{day}"), seed, hard=False)
        cfg.validate()
        sim.cfg = cfg
        noise = block_rng(seed, f"{label}-noise{day}")
        chunks.append(simulate_into(sim, MINUTES_PER_DAY, noise,
                                    timestamp_start=day * MINUTES_PER_DAY))
    return Series(
        minutes=np.concatenate([c.minutes for c in chunks]),
        speeds=np.vstack([c.speeds for c in chunks]),
    )


def _simulate_hard_window(base: CtmConfig, minutes: int, seed: int, index: int) -> Series:
    """One heavily congested window; regenerated with a perturbed seed until
    the sustained-congestion criterion holds."""
    for attempt in range(20):
        cfg = _day_config(base, block_rng(seed, f"hard{index}-attempt{attempt}"), seed, hard=True)
        sim = CtmSim(cfg, initial_density=np.full(NUM_SEGMENTS, 6.0))
        # the window opens at 5:00 so onset, propagation and dissipation fit
        series = simulate_into(sim, minutes, block_rng(seed, f"hard{index}-noise{attempt}"),
                               schedule_start=300)
        if has_sustained_congestion(series):
            return series
    raise ValueError(f"hard window {index}: no {CONGESTION_MINUTES}-minute congestion in "
                     f"20 attempts of hard_minutes = {minutes}; a longer window gives the "
                     "queue time to form")


def make_corpus(base: CtmConfig, sizes: CorpusSizes = CorpusSizes()) -> Corpus:
    """Desk-scale corpus: ``train_days`` of daily-bottleneck traffic, a
    smaller easy validation slice from held-out days, and a handful of
    independently generated heavily congested windows."""
    train = _simulate_days(base, sizes.train_days, base.seed, "train")
    easy = _simulate_days(base, sizes.easy_days, base.seed, "easy")
    hard = [
        _simulate_hard_window(base, sizes.hard_minutes, base.seed, i)
        for i in range(sizes.hard_windows)
    ]
    return Corpus(train=train, easy=easy, hard=hard)
