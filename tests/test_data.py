import io
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesocast import data
from mesocast.data import (
    Bottleneck,
    CorpusSizes,
    CtmConfig,
    CtmSim,
    Series,
    build_windows,
    make_corpus,
    normalize,
    denormalize,
    read_csv,
    stack_windows,
    write_csv,
)
from reference_csv import read_csv_reference, write_csv_reference
from reference_ctm import (ctm_simulate, demand_rate_scan, guarded_substep,
                           has_sustained_congestion_loop)


NUM_SEGMENTS = data.NUM_SEGMENTS
SIDE_BY_SIDE_MINUTES = 40


@st.composite
def valid_ctm(draw):
    """A CtmConfig inside validate's bounds, CFL equality and a full cell at
    the fixed-point limit included, and an initial density up to jam."""
    free_flow = draw(st.floats(5.0, 120.0))
    wave = draw(st.floats(2.0, 200.0))
    substeps = draw(st.integers(1, 8))
    floor_km = max(free_flow, wave) * data.MPH_TO_KM_PER_MIN / substeps
    cell_km = floor_km * draw(st.just(1.0) | st.floats(1.0, 4.0))
    jam = draw(st.floats(5.0, 400.0) | st.just(0.999 * 2.0 ** 21 / cell_km))
    base = CtmConfig(cell_length_km=cell_km, free_flow_mph=free_flow, wave_speed_mph=wave,
                     jam_density=jam, substeps_per_minute=substeps, noise_std_mph=0.0)
    rate = st.just(0.0) | st.floats(0.0, 2.0 * base.capacity)
    starts = draw(st.lists(st.integers(1, SIDE_BY_SIDE_MINUTES - 1), max_size=6, unique=True))
    minute = st.integers(0, SIDE_BY_SIDE_MINUTES)
    cfg = replace(
        base,
        demand=tuple((m, draw(rate)) for m in [0, *sorted(starts)]),
        bottleneck=draw(st.none() | st.builds(
            Bottleneck, st.integers(0, NUM_SEGMENTS - 1),
            st.just(1.0) | st.floats(0.0, 1.0, exclude_min=True), minute, minute)),
        exit_supply_cap=draw(st.none() | rate),
    )
    cfg.validate()
    level = st.just(0.0) | st.just(jam) | st.floats(0.0, jam)
    return cfg, np.array(draw(st.lists(level, min_size=NUM_SEGMENTS, max_size=NUM_SEGMENTS)))


def toy_series(T, start=0, seed=0):
    rng = np.random.default_rng(seed)
    return Series(
        minutes=np.arange(start, start + T),
        speeds=rng.uniform(0, 90, (T, data.NUM_SEGMENTS)),
    )


def csv_lines(series):
    buf = io.StringIO()
    write_csv(series, buf)
    return buf.getvalue().splitlines()


class TestWindows:
    def test_window_count(self):
        windows = build_windows(toy_series(12), s=8, horizon=3)
        assert len(windows) == 2

    def test_first_window_content(self):
        series = toy_series(12)
        windows = build_windows(series, s=8, horizon=3)
        np.testing.assert_array_equal(windows.inputs[0], series.speeds[0:8])
        np.testing.assert_array_equal(windows.targets[0], series.speeds[8:11])

    def test_exact_length_gives_single_window(self):
        assert len(build_windows(toy_series(11), s=8, horizon=3)) == 1

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            build_windows(toy_series(10), s=8, horizon=3)

    def test_non_consecutive_rejected(self):
        series = toy_series(12)
        series.minutes[5] += 10  # introduce a gap
        series = Series(minutes=np.sort(series.minutes), speeds=series.speeds)
        with pytest.raises(ValueError, match="consecutive"):
            build_windows(series, s=8, horizon=3)

    @given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 20))
    def test_count_law(self, s, horizon, extra):
        T = s + horizon + extra
        series = toy_series(T)
        windows = build_windows(series, s, horizon)
        assert len(windows) == T - s - horizon + 1
        for i in range(len(windows)):
            np.testing.assert_array_equal(windows.inputs[i], series.speeds[i:i + s])

    @pytest.mark.parametrize("s, horizon, k", [(1, 0, 1), (8, 3, 1), (8, 3, 79),
                                               (4, 2, 3), (3, 5, 7), (12, 1, 200)])
    def test_stack_of_strided_rows_copies_each_window(self, s, horizon, k):
        series = toy_series(150)
        before = series.speeds.copy()
        x, y = stack_windows(build_windows(series, s, horizon)[::k])
        starts = range(0, 150 - s - horizon + 1, k)
        want_x = np.stack([series.speeds[i:i + s] for i in starts])
        want_y = np.stack([series.speeds[i + s:i + s + horizon] for i in starts])
        for got, want in ((x, want_x), (y, want_y)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous
            got[...] = -1.0  # the stack owns its rows
        assert series.speeds.tobytes() == before.tobytes()


class TestNormalization:
    def test_reference_points(self):
        assert normalize(70.0) == 0.875
        assert normalize(0.0) == 0.0

    def test_round_trip(self):
        x = np.random.default_rng(1).uniform(0, 90, (50, 21))
        assert np.max(np.abs(denormalize(normalize(x)) - x)) <= 1e-13


class TestCsv:
    def test_round_trip(self):
        series = toy_series(40, start=17)
        buf = io.StringIO()
        write_csv(series, buf)
        buf.seek(0)
        back = read_csv(buf)
        np.testing.assert_array_equal(back.minutes, series.minutes)
        assert np.max(np.abs(back.speeds - series.speeds)) <= 1e-9

    def test_round_trip_on_disk(self, tmp_path):
        series = toy_series(10)
        path = tmp_path / "series.csv"
        write_csv(series, path)
        back = read_csv(path)
        assert np.max(np.abs(back.speeds - series.speeds)) <= 1e-9

    def test_wrong_column_count_names_line(self):
        series = toy_series(3)
        lines = csv_lines(series)
        lines[2] = ",".join(lines[2].split(",")[:-1])  # drop a speed column
        with pytest.raises(ValueError, match="line 3"):
            read_csv(io.StringIO("\n".join(lines) + "\n"))

    def test_header_only_is_empty_series(self):
        back = read_csv(io.StringIO(",".join(data.CSV_HEADER) + "\n"))
        assert len(back) == 0

    def test_blank_cell_rejected(self):
        lines = csv_lines(toy_series(2))
        parts = lines[1].split(",")
        parts[3] = ""
        lines[1] = ",".join(parts)
        with pytest.raises(ValueError, match="line 2.*blank"):
            read_csv(io.StringIO("\n".join(lines) + "\n"))

    def test_non_monotone_minute_rejected(self):
        lines = csv_lines(toy_series(3, start=5))
        # rewrite the last row's minute so it goes backwards
        parts = lines[3].split(",")
        parts[0] = "4"
        lines[3] = ",".join(parts)
        with pytest.raises(ValueError, match="line 4"):
            read_csv(io.StringIO("\n".join(lines) + "\n"))

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            read_csv(io.StringIO("time,a,b\n"))

    @pytest.mark.parametrize("speed", ["nan", "inf", "-inf", "-5", "200.5", "1e300"])
    def test_non_finite_or_negative_speed_names_line(self, speed):
        lines = csv_lines(toy_series(4))
        parts = lines[3].split(",")
        parts[7] = speed
        lines[3] = ",".join(parts)
        with pytest.raises(ValueError, match="line 4: speed .* at seg06"):
            read_csv(io.StringIO("\n".join(lines) + "\n"))

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    @pytest.mark.parametrize("row", [0, 2])
    def test_byte_that_is_not_utf8_names_line(self, tmp_path, ending, row):
        lines = [line.encode() for line in csv_lines(toy_series(4))]
        lines[row] += b"\xff"
        path = tmp_path / "series.csv"
        path.write_bytes(ending.encode().join(lines) + ending.encode())
        with pytest.raises(ValueError, match=f"^line {row + 1}: "):
            read_csv(path)

    def test_minutes_far_apart_read_back(self):
        series = Series(minutes=[-9 * 10**18, 9 * 10**18], speeds=np.ones((2, data.NUM_SEGMENTS)))
        buf = io.StringIO()
        write_csv(series, buf)
        buf.seek(0)
        assert read_csv(buf).minutes.tolist() == [-9 * 10**18, 9 * 10**18]

    def test_zero_speed_accepted(self):
        lines = csv_lines(toy_series(2))
        parts = lines[1].split(",")
        parts[1] = "0"
        lines[1] = ",".join(parts)
        assert read_csv(io.StringIO("\n".join(lines) + "\n")).speeds[0, 0] == 0.0


# speeds read_csv accepts: finite, non-negative and at most the ceiling, with
# the small extremes of the float64 grid, a negative zero and the ceiling
csv_speeds = st.one_of(st.floats(0.0, data.SPEED_CEILING_MPH, allow_nan=False),
                       st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                                        89.99999999999, data.SPEED_CEILING_MPH]))


@st.composite
def csv_series(draw, min_rows=0):
    rows = draw(st.integers(min_rows, 8))
    start = draw(st.integers(-10**6, 10**6))
    steps = draw(st.lists(st.integers(1, 5), min_size=rows, max_size=rows))
    speeds = draw(st.lists(csv_speeds, min_size=rows * data.NUM_SEGMENTS,
                           max_size=rows * data.NUM_SEGMENTS))
    return Series(minutes=start + np.cumsum(steps, dtype=np.int64),
                  speeds=np.array(speeds, dtype=np.float64).reshape(rows, data.NUM_SEGMENTS))


def csv_text(lines, ending, trailing):
    return ending.join(lines) + (ending if trailing else "")


def both_readers(text):
    """(new reader's result or error, reference reader's result or error),
    each reading the text as a file opened with ``newline=""`` is read."""
    out = []
    for reader in (read_csv, read_csv_reference):
        try:
            out.append(reader(io.StringIO(text, newline="")))
        except ValueError as exc:
            out.append(exc)
    return out


def _set_cell(column, value):
    def edit(lines, row, pick):
        cells = lines[row].split(",")
        cells[column(cells, pick)] = value(cells, pick)
        lines[row] = ",".join(cells)
    return edit


def _drop_cell(lines, row, pick):
    lines[row] = lines[row].rsplit(",", 1)[0]


def _extra_cell(lines, row, pick):
    lines[row] += ",1.5"


def _empty_line(lines, row, pick):
    lines.insert(row, "")


def _repeat_minute(lines, row, pick):
    cells = lines[row].split(",")
    cells[0] = lines[row - 1].split(",")[0]
    lines[row] = ",".join(cells)


any_column = lambda cells, pick: pick.draw(st.integers(0, data.NUM_SEGMENTS))
speed_column = lambda cells, pick: pick.draw(st.integers(1, data.NUM_SEGMENTS))

# rejection class -> edits of lines[row] (lines[0] is the header) that make
# line row + 1 of the file its first bad line
REJECTIONS = {
    "column count": [_drop_cell, _extra_cell, _empty_line],
    "blank cell": [_set_cell(any_column, lambda c, pick: pick.draw(st.sampled_from(["", " ", "\t"])))],
    "unparseable minute": [_set_cell(lambda c, pick: 0, lambda c, pick: c[0] + ".0"),
                           _set_cell(lambda c, pick: 0, lambda c, pick: "1e3")],
    "unparseable speed": [_set_cell(speed_column, lambda c, pick: pick.draw(
        st.sampled_from(["abc", "1.2.3", "0x10", "1;5", "--1", "nan(1)"])))],
    "minute not increasing": [_repeat_minute],
    "speed out of range": [_set_cell(speed_column, lambda c, pick: pick.draw(
        st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "-5", "-1e-300",
                         "200.00000000001", "1e300"])))],
}


# what a writer must reproduce: any float64, a negative zero, and values
# that need all 12 significant digits
written_speeds = st.one_of(
    st.floats(),
    st.floats(-1e4, 1e4).map(lambda v: float(format(v, ".12g"))),
    st.sampled_from([-0.0, 0.0, 5e-324, 1.00000000001, 123.456789012, 9.99999999999e-5,
                     -89.9999999999, 1e16, 1.7976931348623157e308]))


@st.composite
def written_series(draw):
    rows = draw(st.integers(0, 6))
    minutes = draw(st.sets(st.integers(-2**63, 2**63 - 1), min_size=rows, max_size=rows))
    speeds = draw(st.lists(written_speeds, min_size=rows * data.NUM_SEGMENTS,
                           max_size=rows * data.NUM_SEGMENTS))
    return Series(minutes=np.array(sorted(minutes), dtype=np.int64),
                  speeds=np.array(speeds, dtype=np.float64).reshape(rows, data.NUM_SEGMENTS))


def written_bytes(writer, series) -> bytes:
    buf = io.StringIO(newline="")
    writer(series, buf)
    return buf.getvalue().encode("utf-8")


class TestCsvWriterAgainstReference:
    """The one-format-per-row writer against the csv-module writer it replaced."""

    @given(written_series())
    def test_same_bytes(self, series):
        assert written_bytes(write_csv, series) == written_bytes(write_csv_reference, series)

    def test_same_file_for_a_simulated_series(self, tmp_path):
        series = ctm_simulate(CtmConfig(seed=6), 120)
        write_csv(series, tmp_path / "new.csv")
        write_csv_reference(series, tmp_path / "reference.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


class TestCsvAgainstReference:
    """The vectorized reader against the csv-module reader it replaced."""

    @given(csv_series(), st.sampled_from(["\n", "\r\n", "\r"]), st.booleans())
    def test_written_files_read_bitwise_equal(self, series, ending, trailing):
        new, ref = both_readers(csv_text(csv_lines(series), ending, trailing))
        assert isinstance(new, Series) and isinstance(ref, Series)
        for got, want in ((new.minutes, ref.minutes), (new.speeds, ref.speeds)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=60)
    @given(st.data(), csv_series(min_rows=2), st.sampled_from(sorted(REJECTIONS)),
           st.sampled_from(["\n", "\r\n"]), st.booleans())
    def test_each_rejection_names_the_same_line(self, pick, series, kind, ending, trailing):
        lines = csv_lines(series)
        # row 1 has no earlier minute to repeat
        row = pick.draw(st.integers(2 if kind == "minute not increasing" else 1,
                                    len(lines) - 1))
        pick.draw(st.sampled_from(REJECTIONS[kind]))(lines, row, pick)
        new, ref = both_readers(csv_text(lines, ending, trailing))
        assert isinstance(ref, ValueError) and isinstance(new, ValueError)
        assert str(ref).startswith(f"line {row + 1}:")
        assert str(new) == str(ref)

    @pytest.mark.parametrize("text", [
        "",
        "\n",
        ",".join(data.CSV_HEADER[:-1]) + "\n0" + ",1" * data.NUM_SEGMENTS + "\n",
        ",".join(data.CSV_HEADER).replace("seg05", "seg5") + "\n",
        "time,a,b\n",
    ], ids=["empty file", "empty header", "short header", "misnamed column", "foreign header"])
    def test_header_rejections_match(self, text):
        new, ref = both_readers(text)
        assert isinstance(ref, ValueError) and isinstance(new, ValueError)
        assert str(new) == str(ref)


class TestCtm:
    def test_free_flow_fixed_point(self):
        cfg = CtmConfig(demand=((0, 5.0),), noise_std_mph=0.0)
        series = ctm_simulate(cfg, 300, initial_density=np.full(NUM_SEGMENTS, 40.0))
        assert np.max(np.abs(series.speeds[-1] - 70.0)) <= 1e-9

    def test_speeds_bounded_by_free_flow_before_noise(self):
        cfg = CtmConfig(demand=((0, 30.0),), bottleneck=Bottleneck(12, 0.5, 0, 300),
                        noise_std_mph=0.0)
        series = ctm_simulate(cfg, 300)
        assert np.all(series.speeds >= 0.0)
        assert np.all(series.speeds <= 70.0)

    def test_vehicle_conservation_is_exact(self):
        cfg = CtmConfig(demand=((0, 20.0),), bottleneck=Bottleneck(14, 0.5, 10, 120),
                        noise_std_mph=0.0)
        sim = CtmSim(cfg)
        for minute in range(240):
            for _ in range(cfg.substeps_per_minute):
                before = sim.counts.sum()
                sim.substep(minute)
                assert sim.counts.sum() == before + sim.last_in - sim.last_out

    def test_shock_speed_matches_rankine_hugoniot(self):
        rho_l, rho_r = 10.0, 80.0
        cfg = CtmConfig(noise_std_mph=0.0)
        q_l = cfg.free_flow_kpm * rho_l
        q_r = cfg.wave_speed_kpm * (cfg.jam_density - rho_r)
        sigma = (q_r - q_l) / (rho_r - rho_l)  # km/min, negative = upstream
        dens0 = np.where(np.arange(21) < 14, rho_l, rho_r)
        run = ctm_simulate(
            CtmConfig(demand=((0, q_l),), exit_supply_cap=q_r, noise_std_mph=0.0),
            61, initial_density=dens0,
        )
        v_r = q_r / rho_r / data.MPH_TO_KM_PER_MIN
        mid = 0.5 * (70.0 + v_r)
        front = np.array([np.argmax(run.speeds[t] < mid) for t in range(61)])
        pos_km = (front + 0.5) * cfg.cell_length_km
        slope = np.polyfit(np.arange(61.0), pos_km, 1)[0]
        assert abs(slope - sigma) <= 0.10 * abs(sigma)

    def test_capacity_consistency(self):
        cfg = CtmConfig()
        vf, w = cfg.free_flow_kpm, cfg.wave_speed_kpm
        assert cfg.capacity == pytest.approx(vf * w * cfg.jam_density / (vf + w), rel=1e-12)

    def test_invalid_diagram_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            CtmConfig(jam_density=-1.0).validate()
        with pytest.raises(ValueError, match="CFL"):
            CtmConfig(substeps_per_minute=1, free_flow_mph=70.0).validate()

    @pytest.mark.parametrize("change, field", [
        (dict(free_flow_mph=float("nan")), "free_flow_mph"),
        (dict(jam_density=float("nan")), "jam_density"),
        (dict(wave_speed_mph=float("inf")), "wave_speed_mph"),
        # the backward wave crosses more than a cell per substep
        (dict(wave_speed_mph=200.0), "wave_speed_mph and substeps_per_minute"),
        (dict(free_flow_mph=90.0, substeps_per_minute=3), "free_flow_mph and substeps_per_minute"),
        (dict(jam_density=5e6), "jam_density"),
        (dict(noise_std_mph=float("nan")), "noise_std_mph"),
        (dict(noise_std_mph=-3.0), "noise_std_mph"),
        (dict(noise_std_mph=float("inf")), "noise_std_mph"),
        (dict(demand=((0, 5.0), (60, -1.0))), "demand rates"),
        (dict(demand=((0, float("nan")),)), "demand rates"),
        (dict(exit_supply_cap=-0.5), "exit_supply_cap"),
        (dict(exit_supply_cap=float("nan")), "exit_supply_cap"),
    ])
    def test_each_bound_names_its_field(self, change, field):
        with pytest.raises(ValueError, match=f"^{field} must"):
            replace(CtmConfig(), **change).validate()

    @pytest.mark.parametrize("name", ["train_days", "easy_days", "hard_windows", "hard_minutes"])
    def test_corpus_counts_below_one_rejected(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got 0"):
            CorpusSizes(**{name: 0})

    @pytest.mark.parametrize("change, names", [
        (dict(train_days=2220), "train_days"), (dict(easy_days=2220), "easy_days"),
        (dict(hard_minutes=10 ** 12), "hard_windows and hard_minutes"),
        (dict(hard_windows=4, hard_minutes=798916), "hard_windows and hard_minutes"),
    ])
    def test_corpus_counts_past_the_array_bound_rejected(self, change, names):
        with pytest.raises(ValueError, match=f"^{names} must "):
            CorpusSizes(**change)

    def test_corpus_counts_at_the_array_bound_accepted(self):
        # 2219 days of 1440 x 21 speeds, and 4 windows of 798915 minutes, fit in 2^26
        CorpusSizes(train_days=2219, easy_days=2219, hard_windows=4, hard_minutes=798915)

    @settings(max_examples=100, deadline=None)
    @given(source=st.data())
    def test_guard_free_substep_matches_guarded_reference(self, source):
        cfg, density = source.draw(valid_ctm())
        sim, ref = CtmSim(cfg, density), CtmSim(cfg, density)
        for minute in range(SIDE_BY_SIDE_MINUTES):
            for _ in range(cfg.substeps_per_minute):
                sim.substep(minute)
                guarded_substep(ref, minute)
                assert sim.counts.tobytes() == ref.counts.tobytes()
                assert (sim.last_in, sim.last_out) == (ref.last_in, ref.last_out)
                assert np.all(sim.counts >= 0)

    @given(anchors=st.lists(st.tuples(st.integers(1, 2000), st.floats(0.0, 100.0)),
                            max_size=12, unique_by=lambda a: a[0]),
           first=st.floats(0.0, 100.0), minute=st.integers(-50, 2100))
    def test_demand_lookup_matches_scan(self, anchors, first, minute):
        schedule = ((0, first), *sorted(anchors))
        assert data._demand_rate(schedule, minute) == demand_rate_scan(schedule, minute)

    @given(st.integers(0, 90), st.integers(1, NUM_SEGMENTS), st.integers(1, 40),
           st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
    def test_congestion_test_matches_loop(self, minutes, span, duration, share, seed):
        rng = np.random.default_rng(seed)
        # long slow runs, so that both outcomes come up
        slow = np.repeat(rng.random((minutes // 5 + 1, NUM_SEGMENTS)) < share, 5, axis=0)
        speeds = np.where(slow[:minutes], 20.0, 60.0)
        series = Series(minutes=np.arange(minutes), speeds=speeds)
        assert data.has_sustained_congestion(series, 40.0, span, duration) == \
            has_sustained_congestion_loop(speeds, 40.0, span, duration)

    def test_noise_and_clamp(self):
        cfg = CtmConfig(demand=((0, 5.0),), noise_std_mph=4.0, seed=11)
        series = ctm_simulate(cfg, 120)
        assert np.all(series.speeds >= 0.0)
        assert np.all(series.speeds <= data.MAX_SPEED_MPH)
        assert np.std(series.speeds[60:] - 70.0) > 1.0  # noise is actually applied

    def test_simulation_deterministic(self):
        cfg = CtmConfig(demand=((0, 25.0),), seed=5)
        a, b = ctm_simulate(cfg, 100), ctm_simulate(cfg, 100)
        assert np.array_equal(a.speeds, b.speeds)


@pytest.fixture(scope="module")
def small_corpus():
    return make_corpus(
        CtmConfig(seed=9),
        CorpusSizes(train_days=2, easy_days=2, hard_windows=2, hard_minutes=440),
    )


class TestCorpus:
    def test_shapes(self, small_corpus):
        assert len(small_corpus.train) == 2 * 1440
        assert len(small_corpus.easy) == 2 * 1440
        assert [len(h) for h in small_corpus.hard] == [440, 440]

    def test_hard_windows_satisfy_congestion_criterion(self, small_corpus):
        assert all(data.has_sustained_congestion(h) for h in small_corpus.hard)

    def test_easy_day_has_congestion_episode(self, small_corpus):
        for day in range(2):
            block = small_corpus.easy.speeds[day * 1440:(day + 1) * 1440]
            assert np.any(block < data.CONGESTION_SPEED_MPH)

    def test_easy_congested_fraction_below_quarter(self, small_corpus):
        slow = np.any(small_corpus.easy.speeds < data.CONGESTION_SPEED_MPH, axis=1)
        assert np.mean(slow) < 0.25

    def test_bitwise_deterministic(self, small_corpus):
        again = make_corpus(
            CtmConfig(seed=9),
            CorpusSizes(train_days=2, easy_days=2, hard_windows=2, hard_minutes=440),
        )
        assert np.array_equal(again.train.speeds, small_corpus.train.speeds)
        assert np.array_equal(again.easy.speeds, small_corpus.easy.speeds)
        for a, b in zip(again.hard, small_corpus.hard):
            assert np.array_equal(a.speeds, b.speeds)

    def test_minutes_are_consecutive(self, small_corpus):
        assert np.all(np.diff(small_corpus.train.minutes) == 1)
        assert np.all(np.diff(small_corpus.easy.minutes) == 1)


def test_small_corpus_digest():
    # digest of the generator as it stood before any work on its speed: a
    # faster generator must reproduce this corpus bit for bit
    corpus = make_corpus(CtmConfig(seed=4), CorpusSizes(train_days=1, easy_days=1,
                                                        hard_windows=1, hard_minutes=240))
    crc = 0
    for series in (corpus.train, corpus.easy, *corpus.hard):
        for part in (series.minutes.astype("<i8"), series.speeds.astype("<f8")):
            crc = zlib.crc32(np.ascontiguousarray(part).tobytes().hex().encode(), crc)
    assert f"{crc:08x}" == "9ee80b19"
