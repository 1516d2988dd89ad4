"""The corpus simulator's substep and congestion test as they stood before
the guard-free, whole-array versions: a 21-step loop that capped each
transfer at what the sending cell held, a linear scan of the demand anchors
on every substep, and a per-segment-group run-length loop.  Tests run them
beside ``CtmSim.substep`` and ``has_sustained_congestion`` and require the
same bits.  ``ctm_simulate`` runs one simulator config from a fresh state
for the tests' series."""

import numpy as np

from mesocast.data import _FP_SCALE, NUM_SEGMENTS, CtmSim, simulate_into
from mesocast.seeding import block_rng


def ctm_simulate(cfg, minutes: int, initial_density: np.ndarray | None = None):
    """Per-minute speed fields over ``minutes`` from ``initial_density``
    (default empty road), noise drawn from the config's seed."""
    return simulate_into(CtmSim(cfg, initial_density), minutes, block_rng(cfg.seed, "ctm-noise"))


def demand_rate_scan(schedule, minute: int) -> float:
    rate = schedule[0][1]
    for start, value in schedule:
        if minute >= start:
            rate = value
        else:
            break
    return rate


def guarded_substep(sim, minute: int) -> None:
    """One Godunov transfer on ``sim`` with the overdraw guard."""
    cfg = sim.cfg
    rho = sim.densities
    cap = cfg.capacity
    send = np.minimum(cfg.free_flow_kpm * rho, cap)
    room = np.minimum(cap, cfg.wave_speed_kpm * (cfg.jam_density - rho))

    flux = np.empty(NUM_SEGMENTS + 1)
    flux[0] = min(demand_rate_scan(cfg.demand, minute), room[0])
    flux[1:NUM_SEGMENTS] = np.minimum(send[:-1], room[1:])
    flux[NUM_SEGMENTS] = send[-1]
    b = cfg.bottleneck
    if b is not None and b.start_minute <= minute < b.end_minute:
        flux[b.segment] = min(flux[b.segment], b.capacity_factor * cap)

    transfer = np.rint(flux * (sim.dt * _FP_SCALE))
    # guard against fixed-point rounding overdrawing a near-empty cell
    for i in range(NUM_SEGMENTS):
        transfer[i + 1] = min(transfer[i + 1], sim.counts[i] + transfer[i])
    sim.counts += transfer[:-1]
    sim.counts -= transfer[1:]
    sim.last_in = float(transfer[0])
    sim.last_out = float(transfer[-1])


def has_sustained_congestion_loop(speeds: np.ndarray, speed: float, span: int,
                                  duration: int) -> bool:
    slow = speeds < speed
    for j in range(NUM_SEGMENTS - span + 1):
        block = np.all(slow[:, j:j + span], axis=1)
        run = 0
        for hit in block:
            run = run + 1 if hit else 0
            if run >= duration:
                return True
    return False
