"""Host speed sampled through a run, so that rates are put on one footing.

A shared host runs the same code up to 2x slower for seconds to a minute at
a time, and the share of slow time changes from run to run and by the hour.
A total over a run then moves with that share, and a median or a fast end
flips between the speeds.  So while a run measures, a SIGALRM handler runs a
fixed reference kernel every ``PERIOD_S`` of wall time, in the same thread
(no second thread competes for the cores).  Each sample gives the host's
relative speed, ``NOMINAL_S`` over the kernel's time.  A piece of work is
then charged its seconds times the mean relative speed sampled while it ran,
which is the time it would have taken at the nominal speed, and the
handler's own time is taken out of it.

The kernel mixes, in about equal time, what mesocast spends its time on:
small batch-1 products and elementwise ops (the serving path and the tape's
per-step ops), a 170-row product (the batched paths), and an interpreter
loop.  On a 2-vCPU 2.0 GHz Xeon host the relative speed ranged from about
0.7 to 1.4, the workloads' speed followed the kernel's with a slope of about
1 (log against log, per piece), and ten 30-second runs of a workload then
spread 2 % to 6 % of their median where their wall-clock rates spread 8 % to
25 %.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.1
# about the kernel's time when sampled on a 2-vCPU 2.0 GHz Xeon host; any fixed
# value would do, this one keeps the rates near the wall-clock ones
NOMINAL_S = 0.001

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((65, 256))
_ROW = _rng.standard_normal((1, 65))
_ROWS = _rng.standard_normal((170, 65))


def reference_kernel() -> None:
    h = _ROW
    for _ in range(15):
        g = h @ _W
        h = np.tanh(g[:, :65]) * (1.0 / (1.0 + np.exp(-g[:, 65:130])))
    g = _ROWS @ _W
    np.tanh(g, out=g)
    counts: dict[int, int] = {}
    for i in range(1000):
        counts[i & 63] = counts.get(i & 63, 0) + i


@dataclass(frozen=True)
class Reading:
    """Running totals of a sampler at one moment."""
    clock: float
    spent: float                 # seconds spent in the handler so far
    samples: int
    speed_sum: float             # sum of relative speeds sampled so far


@dataclass(frozen=True)
class Piece:
    """What one timed piece of work took."""
    seconds: float               # wall time without the sampler's own time
    samples: int = 0             # host speed samples taken while it ran
    speed_sum: float = 0.0


class HostSpeed:
    """Samples the reference kernel every ``PERIOD_S`` seconds while active;
    until then a plain timer."""

    def __init__(self, kernel=reference_kernel, nominal: float = NOMINAL_S,
                 clock=time.perf_counter):
        self.kernel = kernel
        self.nominal = nominal
        self.clock = clock
        self.spent = 0.0
        self.samples = 0
        self.speed_sum = 0.0
        self._previous = None

    def sample(self) -> None:
        enter = self.clock()
        self.kernel()
        took = self.clock() - enter
        self.samples += 1
        self.speed_sum += self.nominal / took
        self.spent += self.clock() - enter

    def _tick(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "HostSpeed":
        self.kernel()                           # warm: the first call allocates
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> Reading:
        return Reading(self.clock(), self.spent, self.samples, self.speed_sum)

    def since(self, start: Reading) -> Piece:
        end = self.now()
        return Piece(end.clock - start.clock - (end.spent - start.spent),
                     end.samples - start.samples, end.speed_sum - start.speed_sum)

    @property
    def mean_speed(self) -> float:
        return self.speed_sum / self.samples if self.samples else 1.0


def nominal_seconds(pieces, fallback: float = 1.0) -> float:
    """Total seconds of ``pieces`` at the nominal host speed: their seconds
    times the mean relative speed sampled while they ran (``fallback`` when
    none was sampled)."""
    samples = sum(p.samples for p in pieces)
    speed = sum(p.speed_sum for p in pieces) / samples if samples else fallback
    return sum(p.seconds for p in pieces) * speed
