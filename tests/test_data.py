import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mesocast import data
from mesocast.data import (
    Bottleneck,
    CorpusSizes,
    CtmConfig,
    CtmSim,
    Series,
    build_windows,
    ctm_simulate,
    make_corpus,
    normalize,
    denormalize,
    read_csv,
    write_csv,
)


def toy_series(T, start=0, seed=0):
    rng = np.random.default_rng(seed)
    return Series(
        minutes=np.arange(start, start + T),
        speeds=rng.uniform(0, 90, (T, data.NUM_SEGMENTS)),
    )


class TestWindows:
    def test_window_count(self):
        windows = build_windows(toy_series(12), s=8, horizon=3)
        assert len(windows) == 2

    def test_first_window_content(self):
        series = toy_series(12)
        w = build_windows(series, s=8, horizon=3)[0]
        np.testing.assert_array_equal(w.inputs, series.speeds[0:8])
        np.testing.assert_array_equal(w.targets, series.speeds[8:11])
        assert w.start_minute == 0

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
        windows = build_windows(toy_series(T), s, horizon)
        assert len(windows) == T - s - horizon + 1
        for i, w in enumerate(windows):
            assert w.start_minute == i


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
        lines = data.series_to_csv_text(series).splitlines()
        lines[2] = ",".join(lines[2].split(",")[:-1])  # drop a speed column
        with pytest.raises(ValueError, match="line 3"):
            read_csv(io.StringIO("\n".join(lines) + "\n"))

    def test_header_only_is_empty_series(self):
        back = read_csv(io.StringIO(",".join(data.CSV_HEADER) + "\n"))
        assert len(back) == 0

    def test_blank_cell_rejected(self):
        lines = data.series_to_csv_text(toy_series(2)).splitlines()
        parts = lines[1].split(",")
        parts[3] = ""
        lines[1] = ",".join(parts)
        with pytest.raises(ValueError, match="line 2.*blank"):
            read_csv(io.StringIO("\n".join(lines) + "\n"))

    def test_non_monotone_minute_rejected(self):
        lines = data.series_to_csv_text(toy_series(3, start=5)).splitlines()
        # rewrite the last row's minute so it goes backwards
        parts = lines[3].split(",")
        parts[0] = "4"
        lines[3] = ",".join(parts)
        with pytest.raises(ValueError, match="line 4"):
            read_csv(io.StringIO("\n".join(lines) + "\n"))

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            read_csv(io.StringIO("time,a,b\n"))

    @pytest.mark.parametrize("speed", ["nan", "inf", "-inf", "-5"])
    def test_non_finite_or_negative_speed_names_line(self, speed):
        lines = data.series_to_csv_text(toy_series(4)).splitlines()
        parts = lines[3].split(",")
        parts[7] = speed
        lines[3] = ",".join(parts)
        with pytest.raises(ValueError, match="line 4: speed .* at seg06"):
            read_csv(io.StringIO("\n".join(lines) + "\n"))

    def test_zero_speed_accepted(self):
        lines = data.series_to_csv_text(toy_series(2)).splitlines()
        parts = lines[1].split(",")
        parts[1] = "0"
        lines[1] = ",".join(parts)
        assert read_csv(io.StringIO("\n".join(lines) + "\n")).speeds[0, 0] == 0.0


class TestCtm:
    def test_free_flow_fixed_point(self):
        cfg = CtmConfig(demand=((0, 5.0),), noise_std_mph=0.0, initial_density=40.0)
        series = ctm_simulate(cfg, 300)
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
                before = sim.total_fp
                sim.substep(minute)
                assert sim.total_fp == before + sim.last_in - sim.last_out

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
        assert data.congested_minutes_fraction(small_corpus.easy) < 0.25

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
