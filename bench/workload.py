"""One benchmark workload in one process.

Makes every input from the seed, sets up, measures for the given seconds,
checks the outputs and prints the result; ``run.py`` starts it with the BLAS
thread count fixed.  Workloads:

* ``train``: full-batch taped training with the pyramid loss on a one-week
  corpus: sa-lstm for a fixed number of epochs, then the staged nstep
  schedule, then a checkpoint round trip.
* ``serve``: one closed-loop client with no think time sending 3-minute
  forecasts on real easy and hard windows, alternating the sa-lstm model
  (``forecast_recursive``) and the nstep model (``InferencePlan.run``).
* ``pipeline``: ``mesocast.cli.main`` running ``generate``, ``eval`` of model
  files of all four kinds, and ``forecast`` for each kind.

A unit of work yields between its pieces (a training, a block of requests, a
command).  With ``--trace 0`` the set-up is repeated at each yield, so that
its times span the run like the work's, and the end-to-end metrics of
BENCHMARK.json are reported, every time at the nominal host speed that
``hostspeed.py`` samples through the run.  With ``--trace 1`` it alternates
untraced and traced rounds of set-up plus one unit of work, reports the
per-layer metrics per traced round, and reports the tracing overhead as the
traced rounds' median time over the untraced rounds'.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Iterator

import numpy as np

from mesocast import cli
from mesocast import data as D
from mesocast import models as M
from mesocast import train as T
from mesocast.runtime import tune_allocator

import hostspeed
import stats
import tracing

ROOT = Path(__file__).resolve().parents[1]
WORK_ROOT = ROOT / ".bench_work"
SPEC_PATH = ROOT / "BENCHMARK.json"

S, HORIZONS = 8, 3                  # model window and forecast horizons (the defaults)
KINDS = ("lstm", "sa-lstm", "all-at-once", "nstep")
# the rate each model kind's timings go into: one-step kinds with sa-lstm,
# multi-step kinds with nstep
RATE = {"lstm": "sa_windows_per_s", "sa-lstm": "sa_windows_per_s",
        "all-at-once": "nstep_windows_per_s", "nstep": "nstep_windows_per_s"}
CHECK_WINDOWS = 16                  # per series kind, for the plan/batch agreement
AGREEMENT_TOL = 1e-12

# train: a one-week corpus; stride 79 keeps 128 training windows, exactly
# one taped chunk of 128 x 21 = 2688 rows
TRAIN_SIZES = D.CorpusSizes(train_days=7, easy_days=1, hard_windows=2, hard_minutes=240)
TRAIN_STRIDE = 79
SA_EPOCHS = 4
SA_REPEATS = 6                      # sa-lstm trainings per nstep schedule
NSTEP_EPOCHS_PER_STAGE = 2

# serve and pipeline read one easy day and two hard windows
SMALL_SIZES = D.CorpusSizes(train_days=1, easy_days=1, hard_windows=2, hard_minutes=240)
SERVE_BLOCK = 200                   # requests per unit, alternating the two models
SERVE_MIN_SAMPLES = 1000            # per model, so p99 keeps 10 samples beyond it


class Checks:
    """Operations and output checks attempted, and how many failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return bool(ok)

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def all_finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


def run_cli(checks: Checks, argv: list[str], main=cli.main,
            host: hostspeed.HostSpeed | None = None) -> hostspeed.Piece:
    """What one ``mesocast`` command took; a nonzero exit is a failure."""
    host = host or hostspeed.HostSpeed()
    start = host.now()
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = -1
    piece = host.since(start)
    checks.check(code == 0, f"mesocast {argv[0]} exited {code}")
    return piece


def check_forecast(checks: Checks, what: str, forecast) -> None:
    checks.check(forecast is not None and all_finite(forecast), f"{what}: non-finite forecast")


def check_agreement(checks: Checks, what: str, plan_out, batch_out) -> None:
    ok = plan_out.shape == batch_out.shape and \
        float(np.max(np.abs(plan_out - batch_out))) <= AGREEMENT_TOL
    checks.check(ok, f"{what}: plan and predict_batch differ by more than {AGREEMENT_TOL}")


def plan_forecast(model, plan, window) -> np.ndarray:
    """The 3-minute forecast the serving path returns for ``model``."""
    if model.kind in M.ONE_STEP_KINDS:
        return M.forecast_recursive(model, window, HORIZONS, plan=plan).horizons
    return plan.run(window)[:HORIZONS]


def check_plans(checks: Checks, models: dict, plans: dict, x: np.ndarray) -> None:
    for kind, model in models.items():
        batch = M.predict_batch(model, x, HORIZONS)
        for j in range(x.shape[0]):
            check_agreement(checks, f"{kind} window {j}",
                            plan_forecast(model, plans[kind], x[j]), batch[j])


def hard_mse_x1e3(pred: np.ndarray, truth: np.ndarray) -> float:
    """Normalized MSE x 1e3 over every window, horizon and segment."""
    return float(np.mean((pred - truth) ** 2)) * 1e3


def windows_of(series_list, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    xs, ys = zip(*(D.stack_windows(D.build_windows(s, S, horizon)) for s in series_list))
    return D.normalize(np.concatenate(xs)), D.normalize(np.concatenate(ys))


def generate(seed: int, sizes: D.CorpusSizes, out: Path) -> None:
    """Write the corpus of ``seed`` as the CSV files ``mesocast generate`` writes."""
    corpus = D.make_corpus(D.CtmConfig(seed=seed), sizes)
    D.write_csv(corpus.train, out / "train.csv")
    D.write_csv(corpus.easy, out / "easy.csv")
    for i, series in enumerate(corpus.hard):
        D.write_csv(series, out / f"hard{i}.csv")


def window_count(sizes: D.CorpusSizes) -> int:
    """Easy plus hard windows scored at every horizon."""
    per = lambda minutes: minutes - S - HORIZONS + 1
    return per(D.MINUTES_PER_DAY * sizes.easy_days) + sizes.hard_windows * per(sizes.hard_minutes)


def same_state(a: T.TrainRun, b: T.TrainRun) -> bool:
    """Parameters and optimizer moments of two runs agree bitwise."""
    blocks = b.model.blocks()
    return all(np.array_equal(t.data, blocks[n].data) for n, t in a.model.blocks().items()) \
        and all(np.array_equal(a.optimizer.m[n], b.optimizer.m[n])
                and np.array_equal(a.optimizer.v[n], b.optimizer.v[n]) for n in a.optimizer.m)


def read_rows(path, columns=None) -> list[dict[str, float]]:
    """Numeric columns of an output CSV (all but the first when ``columns`` is
    None); no rows when the file is missing or a value does not parse.  Read
    with the csv module so that checking outputs adds nothing to the trace."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            names = columns or reader.fieldnames[1:]
            return [{k: float(r[k]) for k in names} for r in reader]
    except (OSError, ValueError, KeyError, TypeError):
        return []


def sample_rows(rng: np.random.Generator, count: int, k: int) -> np.ndarray:
    return np.sort(rng.choice(count, size=min(k, count), replace=False))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Every workload reports the same end-to-end rates, each from repeated
    pieces of identical work: ``pieces[name]`` holds (work, piece) pairs, the
    piece timed by ``host`` (a plain timer until it samples)."""

    min_units = 1

    def __init__(self, seed: int, work: Path, checks: Checks):
        self.seed = seed
        self.work = work
        self.checks = checks
        self.host = hostspeed.HostSpeed()
        self.rng = np.random.default_rng(seed)
        self.pieces: dict[str, list[tuple[float, hostspeed.Piece]]] = {
            "sa_windows_per_s": [], "nstep_windows_per_s": []}

    def make_inputs(self) -> None: ...
    def setup(self) -> None: ...
    def finish(self) -> None: ...

    def unit(self) -> Iterator[None]:
        """One unit of work, yielding between its pieces."""
        yield

    def end_to_end(self) -> dict[str, float]:
        return {name: stats.rate(pieces, self.host.mean_speed)
                for name, pieces in self.pieces.items()}

    def quality(self) -> dict[str, float]:
        raise NotImplementedError

    def report_lines(self) -> list[str]:
        return []


class TrainWorkload(Workload):
    def make_inputs(self):
        generate(self.seed, TRAIN_SIZES, self.work)
        # trainer looked up per call, so the traced rounds see the wrapper
        self.fits = {
            "sa-lstm": ("train_one_step_model", 1, SA_EPOCHS, SA_EPOCHS),
            "nstep": ("train_nstep", HORIZONS, NSTEP_EPOCHS_PER_STAGE,
                      NSTEP_EPOCHS_PER_STAGE * (HORIZONS + 1)),
        }
        self.cfgs = {kind: T.TrainConfig(seed=self.seed, train_stride=TRAIN_STRIDE,
                                         epochs_per_stage=per_stage)
                     for kind, (_, _, per_stage, _) in self.fits.items()}
        self.mse: dict[str, float] = {}
        self.trained: list[tuple[str, T.TrainRun, T.TrainRun]] = []
        self.ckpt = self.work / "run.ckpt"

    def setup(self):
        corpus = D.Corpus(train=D.read_csv(self.work / "train.csv"),
                          easy=D.read_csv(self.work / "easy.csv"),
                          hard=[D.read_csv(self.work / f"hard{i}.csv")
                                for i in range(TRAIN_SIZES.hard_windows)])
        self.windows = {kind: T.stage_corpus(corpus, S, horizon, self.cfgs[kind]).x.shape[0]
                        for kind, (_, horizon, _, _) in self.fits.items()}
        self.hard = windows_of(corpus.hard, HORIZONS)
        self.corpus = corpus

    def unit(self):
        for kind in ["sa-lstm"] * SA_REPEATS + ["nstep"]:
            fit, _, _, epochs = self.fits[kind]
            model = M.build_model(kind, seed=self.seed)
            start = self.host.now()
            try:
                run = getattr(T, fit)(model, self.corpus, self.cfgs[kind])
            except Exception:
                traceback.print_exc()
                self.checks.check(False, f"training {kind} raised")
                continue
            piece = self.host.since(start)
            self.checks.check(run.epoch == epochs, f"{kind} ran {run.epoch} epochs, not {epochs}")
            self.pieces[RATE[kind]].append((self.windows[kind] * run.epoch, piece))
            T.save_checkpoint(run, self.cfgs[kind], self.ckpt)
            self.trained.append((kind, run, T.load_checkpoint(self.ckpt, self.cfgs[kind])))
            yield

    def finish(self):
        first: dict[str, T.TrainRun] = {}
        for kind, run, back in self.trained:
            for rec in run.history:
                self.checks.check(math.isfinite(rec.train_loss),
                                  f"{kind} epoch {rec.epoch} loss not finite")
            self.checks.check(same_state(run, back) and back.epoch == run.epoch,
                              f"{kind} checkpoint round trip not bitwise")
            if kind in first:
                self.checks.check(same_state(run, first[kind]),
                                  f"{kind} retraining not reproducible")
                continue
            first[kind] = run
            model = T.best_model(run)
            x, y = self.hard
            self.mse[kind] = hard_mse_x1e3(M.predict_batch(model, x, HORIZONS), y)
            rows = sample_rows(np.random.default_rng([self.seed, 1]), x.shape[0], CHECK_WINDOWS)
            check_plans(self.checks, {kind: model}, {kind: M.InferencePlan(model)}, x[rows])

    def quality(self):
        return {"quality.sa_hard_mse_x1e3": self.mse.get("sa-lstm", math.nan),
                "quality.nstep_hard_mse_x1e3": self.mse.get("nstep", math.nan)}

    def report_lines(self):
        e = self.end_to_end()
        q = self.quality()
        return [f"train_sa_windows_per_s {e['sa_windows_per_s']:.4f} windows/s "
                f"({self.windows['sa-lstm']} windows x {SA_EPOCHS} epochs, "
                f"{len(self.pieces['sa_windows_per_s'])} runs)",
                f"train_nstep_windows_per_s {e['nstep_windows_per_s']:.4f} windows/s "
                f"({self.windows['nstep']} windows x {NSTEP_EPOCHS_PER_STAGE} epochs x "
                f"{HORIZONS + 1} stages, {len(self.pieces['nstep_windows_per_s'])} runs)",
                f"sa_hard_mse_x1e3 {q['quality.sa_hard_mse_x1e3']:.6f}",
                f"nstep_hard_mse_x1e3 {q['quality.nstep_hard_mse_x1e3']:.6f}"]


class ServeWorkload(Workload):
    min_units = math.ceil(2 * SERVE_MIN_SAMPLES / SERVE_BLOCK)
    served = ("sa-lstm", "nstep")

    def make_inputs(self):
        generate(self.seed, SMALL_SIZES, self.work)
        for kind in self.served:
            M.save_model(M.build_model(kind, seed=self.seed), self.work / f"{kind}.bin")
        self.order = self.rng.integers(0, window_count(SMALL_SIZES), size=1 << 17)
        self.sent = 0
        self.latencies: dict[str, list[float]] = {kind: [] for kind in self.served}

    def setup(self):
        easy = [D.read_csv(self.work / "easy.csv")]
        hard = [D.read_csv(self.work / f"hard{i}.csv") for i in range(SMALL_SIZES.hard_windows)]
        ex, ey = windows_of(easy, HORIZONS)
        hx, hy = windows_of(hard, HORIZONS)
        self.x, self.y = np.concatenate([ex, hx]), np.concatenate([ey, hy])
        self.easy_count = ex.shape[0]
        self.models = {kind: M.load_model(self.work / f"{kind}.bin") for kind in self.served}
        self.plans = {kind: M.InferencePlan(m) for kind, m in self.models.items()}

    def unit(self):
        block: dict[str, list[hostspeed.Piece]] = {kind: [] for kind in self.served}
        for _ in range(SERVE_BLOCK // 2):
            for kind in self.served:
                window = self.x[self.order[self.sent % len(self.order)]]
                self.sent += 1
                start = self.host.now()
                try:
                    out = plan_forecast(self.models[kind], self.plans[kind], window)
                except Exception:
                    traceback.print_exc()
                    out = None
                block[kind].append(self.host.since(start))
                check_forecast(self.checks, f"{kind} request {self.sent}", out)
        for kind, requests in block.items():
            seconds = [r.seconds for r in requests]
            self.latencies[kind] += seconds
            # one piece per block, its median request at the block's host
            # speed: a cost that hits most requests moves it, a stray slow
            # request does not
            self.pieces[RATE[kind]].append((1, hostspeed.Piece(
                stats.median(seconds), sum(r.samples for r in requests),
                sum(r.speed_sum for r in requests))))
        yield

    def finish(self):
        rng = np.random.default_rng([self.seed, 1])
        easy_rows = sample_rows(rng, self.easy_count, CHECK_WINDOWS)
        hard_rows = self.easy_count + sample_rows(rng, self.x.shape[0] - self.easy_count,
                                                  CHECK_WINDOWS)
        check_plans(self.checks, self.models, self.plans,
                    self.x[np.concatenate([easy_rows, hard_rows])])
        self.mse = {kind: hard_mse_x1e3(
            np.stack([plan_forecast(self.models[kind], self.plans[kind], self.x[r])
                      for r in hard_rows]), self.y[hard_rows]) for kind in self.served}

    def quality(self):
        return {"quality.sa_hard_mse_x1e3": self.mse["sa-lstm"],
                "quality.nstep_hard_mse_x1e3": self.mse["nstep"]}

    def report_lines(self):
        lines = []
        for kind, label in (("sa-lstm", "sa"), ("nstep", "nstep")):
            ms = [seconds * 1e3 for seconds in self.latencies[kind]]
            tail = stats.tail_percentile(len(ms))
            lines.append(f"{label}_forecast_p50_ms {stats.median(ms):.4f} ms (n={len(ms)})")
            lines.append(f"{label}_forecast_p99_ms {stats.percentile(ms, 99.0):.4f} ms "
                         f"(n={len(ms)}, highest percentile with 10 beyond: p{tail})")
        return lines


class PipelineWorkload(Workload):
    min_units = 2                       # every run evaluates each kind at least twice

    def make_inputs(self):
        generate(self.seed, SMALL_SIZES, self.work)
        self.config = self.work / "run.ini"
        self.config.write_text(
            "[data]\n"
            f"seed = {self.seed}\n"
            f"train_days = {SMALL_SIZES.train_days}\n"
            f"easy_days = {SMALL_SIZES.easy_days}\n"
            f"hard_windows = {SMALL_SIZES.hard_windows}\n"
            f"hard_minutes = {SMALL_SIZES.hard_minutes}\n", encoding="utf-8")
        self.paths = {}
        for kind in KINDS:
            self.paths[kind] = self.work / f"{kind}.bin"
            M.save_model(M.build_model(kind, seed=self.seed), self.paths[kind])
        self.minutes = D.MINUTES_PER_DAY * (SMALL_SIZES.train_days + SMALL_SIZES.easy_days) \
            + SMALL_SIZES.hard_windows * SMALL_SIZES.hard_minutes
        self.windows = window_count(SMALL_SIZES)
        self.generate_pieces: list[hostspeed.Piece] = []
        self.eval_pieces = {kind: [] for kind in KINDS}
        self.at = [int(m) for m in self.rng.integers(S - 1, SMALL_SIZES.hard_minutes,
                                                     size=len(KINDS))]
        self.units = 0
        self.mse: dict[str, float] = {}

    def setup(self):
        # what the eval and forecast commands do before their own work: read
        # the corpus that generate writes, load the model files, plan them
        for name in ["train.csv", "easy.csv",
                     *(f"hard{i}.csv" for i in range(SMALL_SIZES.hard_windows))]:
            D.read_csv(self.work / name)
        for path in self.paths.values():
            M.InferencePlan(M.load_model(path))

    def unit(self):
        out = self.work / f"unit{self.units}"
        self.units += 1
        common = ["--config", str(self.config), "--out", str(out)]
        self.generate_pieces.append(run_cli(self.checks, ["generate", *common], host=self.host))
        yield
        for kind in KINDS:
            piece = run_cli(self.checks, ["eval", *common, "--checkpoint", str(self.paths[kind])],
                            host=self.host)
            self.eval_pieces[kind].append(piece)
            self.pieces[RATE[kind]].append((self.windows, piece))
            rows = self.check_csv(f"report.csv of {kind}", out / "report.csv",
                                  ("easy_mse_x1e3", "hard_mse_x1e3"))
            if rows:
                self.mse[kind] = float(np.mean([r["hard_mse_x1e3"] for r in rows]))
            yield
        for j, kind in enumerate(KINDS):
            target = out / f"forecast-{kind}.csv"
            run_cli(self.checks, ["forecast", *common, "--checkpoint", str(self.paths[kind]),
                                  "--input", str(out / f"hard{j % SMALL_SIZES.hard_windows}.csv"),
                                  "--at", str(self.at[j]), "--output", str(target)],
                    host=self.host)
            self.check_csv(f"forecast.csv of {kind}", target)
            yield

    def check_csv(self, what, path, columns=None):
        """The file's rows when it has one per horizon, all finite."""
        rows = read_rows(path, columns)
        ok = len(rows) == HORIZONS and all_finite([v for r in rows for v in r.values()])
        self.checks.check(ok, f"{what}: missing rows or non-finite values")
        return rows if ok else None

    def quality(self):
        return {"quality.sa_hard_mse_x1e3": self.mse.get("sa-lstm", math.nan),
                "quality.nstep_hard_mse_x1e3": self.mse.get("nstep", math.nan)}

    def report_lines(self):
        speed = self.host.mean_speed
        seconds = {kind: stats.typical_seconds(p, speed) for kind, p in self.eval_pieces.items()}
        generate = stats.typical_seconds(self.generate_pieces, speed)
        lines = [f"generate_minutes_per_s {self.minutes / generate:.4f}"
                 f" min/s ({self.minutes} minutes, {self.units} runs)",
                 f"eval_windows_per_s {len(KINDS) * self.windows / sum(seconds.values()):.4f} "
                 f"windows/s ({self.windows} windows x {HORIZONS} horizons x {len(KINDS)} kinds)"]
        for kind in KINDS:
            lines.append(f"  eval {kind} {self.windows / seconds[kind]:.4f} windows/s")
        return lines


WORKLOADS = {"train": TrainWorkload, "serve": ServeWorkload, "pipeline": PipelineWorkload}


# ---------------------------------------------------------------------------
# host record
# ---------------------------------------------------------------------------


def blas_threads_in_use() -> int | None:
    """Thread count OpenBLAS reports, when numpy links an OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def process_threads() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def host_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name,
            "blas_threads_set": os.environ.get("OPENBLAS_NUM_THREADS"),
            "blas_threads": blas_threads_in_use()}


def check_threads(checks: Checks, host: dict) -> None:
    limit = host["blas_threads"] or int(host["blas_threads_set"] or 1)
    threads = process_threads()
    host["process_threads"] = threads
    checks.check(threads is None or threads <= limit,
                 f"process runs {threads} threads, BLAS limit is {limit}")


# ---------------------------------------------------------------------------
# running one workload
# ---------------------------------------------------------------------------


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(wl: Workload, setups: list[hostspeed.Piece]) -> None:
    start = wl.host.now()
    wl.setup()
    setups.append(wl.host.since(start))


def measure(wl: Workload, seconds: float) -> tuple[list[hostspeed.Piece], int]:
    """Set-ups and units run, with the host speed sampled throughout.  The
    set-up is repeated between the pieces of each unit, so that its times
    span the run like the work's."""
    setups: list[hostspeed.Piece] = []
    durations: list[float] = []
    with wl.host:
        timed_setup(wl, setups)
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            for _ in wl.unit():
                timed_setup(wl, setups)
            durations.append(time.perf_counter() - t0)
            if len(durations) >= wl.min_units and \
                    time.perf_counter() - start + stats.median(durations) > seconds:
                break
    return setups, len(durations)


def measure_traced(wl: Workload, tracer: tracing.Tracer, seconds: float):
    rounds: dict[bool, list[float]] = {False: [], True: []}
    start = time.perf_counter()
    while True:
        traced = len(rounds[False]) > len(rounds[True])
        t0 = time.perf_counter()
        with tracing.installed(tracer) if traced else contextlib.nullcontext():
            wl.setup()
            for _ in wl.unit():
                pass
        rounds[traced].append(time.perf_counter() - t0)
        longest = max(rounds[False] + rounds[True])
        if rounds[True] and time.perf_counter() - start + longest > seconds:
            break
    return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    spec = load_spec()

    # every mesocast entry point tunes the allocator first; set-up must run under it too
    tune_allocator()
    checks = Checks()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        wl = WORKLOADS[args.workload](args.seed, work, checks)
        wl.make_inputs()
        if args.trace:
            tracer = tracing.Tracer()
            rounds = measure_traced(wl, tracer, args.seconds)
            wl.finish()
            values = tracing.layer_metrics(tracer, len(rounds[True]))
            values.update(wl.quality())
            values["trace.overhead_pct"] = 100.0 * (
                stats.median(rounds[True]) / stats.median(rounds[False]) - 1.0)
            tracer.dump(WORK_ROOT / f"trace-{args.workload}-seed{args.seed}.jsonl")
            wanted = spec["per_layer"]
            summary = [f"{len(rounds[True])} traced and {len(rounds[False])} untraced rounds, "
                       f"{len(tracer.spans)} spans"]
        else:
            setups, units = measure(wl, args.seconds)
            wl.finish()
            values = wl.end_to_end()
            values["setup_s"] = stats.typical_seconds(setups, wl.host.mean_speed)
            values["peak_rss_mb"] = peak_rss_mb()
            wanted = spec["end_to_end"]
            raw = {name: sum(w for w, _ in pieces) / sum(p.seconds for _, p in pieces)
                   for name, pieces in wl.pieces.items()}
            summary = [f"{units} units measured; setup_s from {len(setups)} set-ups; "
                       f"times at the nominal host speed, the host ran at "
                       f"{wl.host.mean_speed:.3f} of it ({wl.host.samples} samples)",
                       "wall-clock " + ", ".join(f"{name} {value:.6g}"
                                                 for name, value in raw.items())]
            summary += wl.report_lines()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    host = host_record()
    check_threads(checks, host)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    broken = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if broken:
        print(f"error: no finite value for {', '.join(broken)}", file=sys.stderr)
        return 1

    print(f"host {json.dumps(host, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: " + summary[0])
    for line in summary[1:]:
        print(f"  {line}")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(f"  ops_failed_ratio {checks.ratio:.6g} ({checks.failed} of {checks.attempted})")
    for note in checks.notes:
        print(f"  failed: {note}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
