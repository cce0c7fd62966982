"""Batched multi-scenario engine — one NumPy frame loop steps S scenarios.

The table engines (:mod:`repro.sim.tablepath`, :mod:`repro.sim.thermalpath`)
collapsed per-frame physics to table lookups, but a campaign grid still pays
one Python frame loop *per scenario* even when every scenario in the grid
shares the same precomputed (frame × operating-point) physics table.  This
engine adds the missing axis: scenarios that share an application trace and
cluster physics are stepped *simultaneously*, with a leading batch axis on
every per-frame quantity (operating index, busy time, interval, energy,
power, sensor reading, junction temperature), so the per-frame cost is a
handful of ``(S,)`` NumPy operations instead of S loop iterations.

The closed loop stays closed — frame *i*'s operating point still depends on
what each governor observed during frame *i − 1* — so governors are stepped
in lock-step and *vectorised by family*:

* **static** (``performance`` / ``powersave`` / ``userspace``): the pinned
  index is gathered once; the frame loop is pure physics;
* **ondemand** / **conservative**: the load computation, threshold tests,
  hold-window counters and frequency rounding are vectorised across the
  batch (per-member tunables become ``(S,)`` arrays);
* **proposed-rl** (:class:`~repro.rtm.rl_governor.RLGovernor`): the slack
  tracking, reward, state mapping, Bellman update, greedy repair and
  ε-greedy selection are vectorised via
  :class:`~repro.rtm.batch.BatchedAgents`.  The EWMA prediction and
  workload-range chain consumes only the shared trace, so it is replayed
  once per batch in scalar Python and broadcast; the ε decay and the
  explorative EPD draws remain scalar islands driven by each member's own
  ``random.Random`` stream (see :mod:`repro.rtm.batch`);
* **generic** (oracle, the many-core RL formulations, any third-party
  governor): nothing to vectorise — ``decide()`` is scalar Python either
  way — so these members always run on the per-scenario table engine.

A family narrower than its measured crossover width
(:data:`DEFAULT_SCALAR_CUTOFFS`) takes the same per-scenario route; its
result columns are re-homed in the batch's compact deferred form, so a
routed member costs no more memory than a vectorised one.

Bit-identity is the contract, not a tolerance: every float is produced by
the same IEEE operation on the same operands as the per-scenario table
engines (which in turn match the scalar engine), every ``math.exp`` island
(ε decay, EPD sampling weights, leakage theta, RC decay) stays scalar, and
every RNG draw happens in the scalar call order on the member's own
generator.  A batched run therefore reproduces S individual
tablepath/thermalpath runs exactly — trajectories, miss sets, exploration
counts, Q-tables, cluster aggregate state, transitions and final thermal
state (``tests/test_batchpath.py`` enforces all of this, per governor, with
and without the thermal model).

Eligibility: NumPy importable.  Thermal and isothermal clusters are both
supported; all members of one batch must share the thermal mode, the
application trace and the cluster physics (validated against the shared
table before stepping).
"""

from __future__ import annotations

import math
from collections import deque
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

try:  # NumPy is optional: without it every run takes the scalar engine.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-less installs
    _np = None  # type: ignore[assignment]

from repro.errors import InvalidOperatingPointError, SimulationError
from repro.governors.base import StaticGovernor
from repro.governors.conservative import ConservativeGovernor
from repro.governors.ondemand import OndemandGovernor
from repro.platform.cluster import ThermalWorkloadTable, WorkloadTable
from repro.platform.dvfs import DVFSTransition
from repro.rtm.batch import BatchedAgents
from repro.rtm.governor import PlatformInfo
from repro.rtm.prediction import EWMAPredictor
from repro.rtm.rl_governor import RLGovernor
from repro.rtm.state import WorkloadRangeTracker
from repro.sim import fastpath, tablepath, thermalpath
from repro.sim.epoch import FrameColumns
from repro.sim.results import SimulationResult
from repro.sim.tablepath import static_processing_overhead

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.cluster import Cluster
    from repro.rtm.governor import Governor
    from repro.sim.engine import SimulationConfig
    from repro.workload.application import Application

#: One batched scenario: the cluster to mutate and the governor to step.
BatchMember = Tuple["Cluster", "Governor"]


def batch_path_eligible(cluster: "Cluster") -> bool:
    """True when the batched engine reproduces the scalar engine for ``cluster``.

    Only NumPy is required: thermal and isothermal clusters both batch, and
    every governor is steppable (families without a vectorised runner take
    the per-scenario table engine inside the batch).
    """
    return _np is not None


def precompute_tables(
    cluster: "Cluster", application: "Application", config: "SimulationConfig"
):
    """Precompute the shared physics table for one batch.

    Thermally-enabled clusters get the decomposed
    :class:`~repro.platform.cluster.ThermalWorkloadTable`; isothermal
    clusters the fully-baked :class:`~repro.platform.cluster.WorkloadTable`
    — the same tables the per-scenario engines use, so the campaign
    executor's cache serves both.
    """
    if cluster.thermal_model.enabled:
        return thermalpath.precompute_tables(cluster, application, config)
    return tablepath.precompute_tables(cluster, application, config)


#: Thermal mode → family kind → minimum width at which the vectorised
#: runner beats running the members one by one on the per-scenario table
#: engine.  Measured per member on h264 at 3000 frames, best of 3, in
#: µs/frame, vectorised vs per-scenario, on a 2-CPU x86-64 box with
#: Python 3.11 and numpy 2.4 (``benchmarks/bench_batch_crossover.py``
#: prints the full table):
#:
#: ============  ===================  ===================
#: family        isothermal           thermal
#: ============  ===================  ===================
#: static        S=1: 0.3 vs 3.3      S=8: 6.3 vs 4.3,
#:                                    S=16: 3.4 vs 4.2
#: ondemand      S=2: 5.6 vs 5.2,     S=8: 10.2 vs 5.7,
#:               S=4: 3.0 vs 4.7      S=16: 5.9 vs 5.7
#: conservative  S=2: 5.0 vs 3.2,     S=8: 7.5 vs 4.1,
#:               S=4: 2.5 vs 3.2      S=16: 4.0 vs 4.1
#: rl            S=4: 16.1 vs 9.5,    S=8: 16.1 vs 10.9,
#:               S=8: 8.6 vs 10.4     S=16: 9.0 vs 11.1
#: ============  ===================  ===================
#:
#: Every vectorised frame pays an S-independent chain of small-array NumPy
#: dispatches, and the thermal step (per-member leakage and RC decay
#: islands) pays several times more of them, so the crossover sits higher
#: on thermal clusters.  The isothermal static family has no frame loop at
#: all and wins at any width (ondemand at thermal S=16 is a tie; S=32 wins
#: at 4.1 vs 5.7).  The generic family has no vectorised runner and always
#: runs per scenario, cutoffs or not.  Opt-in: pass to :func:`run_batch` /
#: :func:`simulate_batch` (the campaign batch planner and the benchmarks
#: do; the identity tests force full batching by omitting it).  Results
#: are identical either way — routing only moves a family between two
#: engines that are bit-equal by contract.
DEFAULT_SCALAR_CUTOFFS: Dict[str, Dict[str, int]] = {
    "isothermal": {"ondemand": 4, "conservative": 4, "rl": 8},
    "thermal": {"static": 16, "ondemand": 16, "conservative": 16, "rl": 16},
}


def run_batch(
    members: Sequence[BatchMember],
    application: "Application",
    config: "SimulationConfig",
    tables=None,
    scalar_cutoffs: Optional[Dict[str, Dict[str, int]]] = None,
) -> List[SimulationResult]:
    """Reset, set up and simulate ``members``; the full per-scenario lifecycle.

    Convenience entry point mirroring :meth:`SimulationEngine.run` for every
    member: reset the cluster to the configured initial operating point, set
    the governor up against the platform and requirement, then hand the
    batch to :func:`simulate_batch`.
    """
    for cluster, governor in members:
        cluster.reset(config.initial_operating_index)
        governor.setup(
            PlatformInfo(num_cores=cluster.num_cores, vf_table=cluster.vf_table),
            application.requirement,
        )
    return simulate_batch(
        members, application, config, tables=tables, scalar_cutoffs=scalar_cutoffs
    )


# ---------------------------------------------------------------------------
# Shared batched physics
# ---------------------------------------------------------------------------


class _BatchPhysics:
    """Vectorised per-frame physics for one family's members.

    Owns the batch-axis mutable state — current operating index, clock,
    sensor holdover, junction temperature, transition log — and performs,
    per frame, exactly the operations the per-scenario table engines
    perform, elementwise over the batch.
    """

    def __init__(self, np, clusters, tables, config, thermal: bool) -> None:
        size = len(clusters)
        self.np = np
        self.size = size
        self.num_points = tables.num_points
        self.pad_to_deadline = tables.idle_until_deadline
        self.max_cycles = tables.max_cycles
        self.deadlines = tables.deadlines_s.tolist()
        self.cycles_tuples = tables.cycles_tuples
        self.spc = np.asarray(tables.seconds_per_cycle, dtype=float)

        self._latency = [cluster.dvfs.transition_latency_s for cluster in clusters]
        self._transition_energy = [
            cluster.dvfs.transition_energy_j for cluster in clusters
        ]
        self.latency = np.asarray(self._latency, dtype=float)
        self.transition_energy_j = np.asarray(self._transition_energy, dtype=float)

        self.current = np.array(
            [cluster.current_index for cluster in clusters], dtype=np.intp
        )
        self.initial_index = self.current.copy()
        self.time = np.array([cluster.time_s for cluster in clusters], dtype=float)
        self.initial_time = self.time.copy()
        self.transitions: List[List[DVFSTransition]] = [[] for _ in range(size)]
        # Deferred mode instead fills per-member (timestamps, from, to)
        # columns, absorbed lazily by the actuator without building records.
        self.transition_columns: List[Optional[tuple]] = [None] * size

        # Deferred-mode caches (filled by :meth:`materialise`; consumed by
        # ``_finalise_member`` to avoid per-member re-gathers).
        self.spc_matrix = None
        self.intervals_matrix = None
        self.core_matrix = None
        self.te_matrix = None

        if thermal:
            self.uncore_power_w = tables.uncore_power_w
            self.dynamic_busy = np.asarray(tables.dynamic_busy_w, dtype=float)
            self.dynamic_idle = np.asarray(tables.dynamic_idle_w, dtype=float)
            self.leak_scale = np.asarray(tables.leak_scale_a, dtype=float)
            self.voltages = np.asarray(tables.voltages_v, dtype=float)
            self.leakage_k3 = tables.leakage_k3_per_c
            self.leakage_k4 = tables.leakage_k4_a
            self.bucket_c = tables.bucket_c
            self.bucketed = tables.bucket_c > 0.0
            self.power_slices = tables.power_slices
            self.power_model = clusters[0].power_model
            self.vf_points = clusters[0].vf_table.points
            self.idle_at_min_opp = tables.idle_at_min_opp
            self.ambient_c = tables.ambient_c
            self.resistance = tables.resistance_c_per_w
            self.throttle_c = tables.throttle_c
            # tau is recomputed per step by the scalar model; the product is
            # deterministic, so hoisting it preserves bit-identity.
            self.tau = tables.resistance_c_per_w * tables.capacitance_j_per_c
            self.decay_cache: Dict[float, float] = {}
            self.temperature = np.array(
                [cluster.thermal_model.temperature_c for cluster in clusters],
                dtype=float,
            )
            self._theta = [0.0] * size
            self._theta_temperature: List[Optional[float]] = [None] * size
            self.throttle_total = np.zeros(size, dtype=np.int64)
        else:
            self.energy_table = tables.energy
            self.max_cycles_array = np.asarray(tables.max_cycles, dtype=float)
            self.deadlines_array = tables.deadlines_s

        # Sensor state: the whole batch is vectorised when no member's
        # sensor draws noise or records history; otherwise each frame steps
        # the live sensors scalar (they keep their own state either way).
        sensors = [cluster.power_sensor for cluster in clusters]
        self.sensors = sensors
        self.vector_sensor = all(
            sensor.noise_stddev_w == 0 and not sensor.record_history
            for sensor in sensors
        )
        if self.vector_sensor:
            self.sensor_period = np.array(
                [sensor.sample_period_s for sensor in sensors]
            )
            resolution = np.array([sensor.resolution_w for sensor in sensors])
            self.sensor_resolution = resolution
            self.sensor_quantises = resolution > 0
            self._resolution_safe = np.where(resolution > 0, resolution, 1.0)
            self.sensor_has_last = np.array(
                [sensor._last_time_s is not None for sensor in sensors], dtype=bool
            )
            self.sensor_last_time = np.array(
                [
                    0.0 if sensor._last_time_s is None else sensor._last_time_s
                    for sensor in sensors
                ]
            )
            self.sensor_last_power = np.array(
                [sensor._last_power_w for sensor in sensors]
            )

    # -- per-frame thermal step ---------------------------------------------------
    def step(self, frame: int, indices):
        """Advance every member of a thermal batch one frame at its chosen index.

        Returns ``(busy, duration, energy, power, measured, tl,
        core_uncore)``, all ``(S,)`` arrays.  Isothermal batches never step
        frame by frame: see the deferred mode below.
        """
        np = self.np
        current = self.current
        changed = indices != current
        if changed.any():
            bad = changed & ((indices < 0) | (indices >= self.num_points))
            if bad.any():
                offender = int(indices[np.nonzero(bad)[0][0]])
                raise InvalidOperatingPointError(
                    f"operating-point index {offender} out of range "
                    f"(0..{self.num_points - 1})"
                )
            time_list = self.time.tolist()
            for member in np.nonzero(changed)[0]:
                self.transitions[member].append(
                    DVFSTransition(
                        time_list[member],
                        int(current[member]),
                        int(indices[member]),
                        self._latency[member],
                        self._transition_energy[member],
                    )
                )
        self.current = indices.copy()
        transition_latency = np.where(changed, self.latency, 0.0)
        frame_transition_energy = np.where(changed, self.transition_energy_j, 0.0)

        frame_max_cycles = self.max_cycles[frame]
        deadline = self.deadlines[frame]
        busy = frame_max_cycles * self.spc[indices]

        if self.pad_to_deadline:
            interval = np.where(deadline > busy, deadline, busy)
        else:
            interval = busy
        busy_power, idle_power = self._thermal_powers(indices)
        spc_gathered = self.spc[indices]
        core_energy = np.zeros(self.size)
        for core_cycles in self.cycles_tuples[frame]:
            core_busy = core_cycles * spc_gathered
            core_energy = core_energy + (
                busy_power * core_busy + idle_power * (interval - core_busy)
            )
        core_uncore = core_energy + self.uncore_power_w * interval
        energy = core_uncore + frame_transition_energy
        duration = interval + transition_latency

        positive = duration > 0
        power = np.where(
            positive, energy / np.where(positive, duration, 1.0), 0.0
        )

        self._thermal_update(duration, power)

        self.time = self.time + duration
        measured = self._measure(power)
        return (
            busy,
            duration,
            energy,
            power,
            measured,
            transition_latency,
            core_uncore,
        )

    def _thermal_powers(self, indices):
        """Per-core busy/idle powers at each member's start-of-frame temperature."""
        np = self.np
        size = self.size
        if self.idle_at_min_opp:
            idle_indices = np.zeros(size, dtype=np.intp)
        else:
            idle_indices = indices
        temperatures = self.temperature.tolist()
        if self.bucketed:
            bucket = self.bucket_c
            slices_by_bucket = self.power_slices
            busy_list = [0.0] * size
            idle_list = [0.0] * size
            index_list = indices.tolist()
            idle_index_list = idle_indices.tolist()
            for member in range(size):
                quantised = round(temperatures[member] / bucket) * bucket
                slices = slices_by_bucket.get(quantised)
                if slices is None:
                    slices = self.power_model.power_table(self.vf_points, quantised)
                    slices_by_bucket[quantised] = slices
                busy_list[member] = slices[0][index_list[member]]
                idle_list[member] = slices[1][idle_index_list[member]]
            return np.asarray(busy_list), np.asarray(idle_list)
        # Exact mode: one math.exp per member whose temperature moved
        # (memoised exactly as the scalar loop memoises its theta).
        theta = self._theta
        theta_temperature = self._theta_temperature
        k3 = self.leakage_k3
        for member in range(size):
            temperature = temperatures[member]
            if temperature != theta_temperature[member]:
                theta[member] = math.exp(k3 * (temperature - 55.0))
                theta_temperature[member] = temperature
        theta_arr = np.asarray(theta)
        k4 = self.leakage_k4
        busy_power = self.dynamic_busy[indices] + self.voltages[indices] * (
            self.leak_scale[indices] * theta_arr + k4
        )
        idle_power = self.dynamic_idle[idle_indices] + self.voltages[idle_indices] * (
            self.leak_scale[idle_indices] * theta_arr + k4
        )
        return busy_power, idle_power

    def _thermal_update(self, duration, power):
        """RC temperature update + throttle accounting."""
        np = self.np
        active = duration > 0
        steady = self.ambient_c + power * self.resistance
        decay = np.empty(self.size)
        cache = self.decay_cache
        tau = self.tau
        for member, frame_duration in enumerate(duration.tolist()):
            value = cache.get(frame_duration)
            if value is None:
                value = math.exp(-frame_duration / tau)
                cache[frame_duration] = value
            decay[member] = value
        updated = steady + (self.temperature - steady) * decay
        self.temperature = np.where(active, updated, self.temperature)
        self.throttle_total += active & (self.temperature >= self.throttle_c)

    def _measure(self, power):
        """Step every member's power sensor at the (just advanced) clock."""
        np = self.np
        if not self.vector_sensor:
            return np.array(
                [
                    sensor.measure_w(true_power, timestamp)
                    for sensor, true_power, timestamp in zip(
                        self.sensors, power.tolist(), self.time.tolist()
                    )
                ]
            )
        fresh = (~self.sensor_has_last) | (
            (self.time - self.sensor_last_time) >= self.sensor_period
        )
        quantised = np.where(
            self.sensor_quantises,
            np.rint(power / self._resolution_safe) * self.sensor_resolution,
            power,
        )
        measured = np.maximum(0.0, quantised)
        out = np.where(fresh, measured, self.sensor_last_power)
        self.sensor_last_time = np.where(fresh, self.time, self.sensor_last_time)
        self.sensor_last_power = np.where(fresh, measured, self.sensor_last_power)
        self.sensor_has_last = self.sensor_has_last | fresh
        return out

    # -- deferred mode ------------------------------------------------------------
    # For isothermal batches the closed loop only feeds ``busy`` (and, for
    # ondemand/conservative, the frame duration) back into the next decide();
    # energy, power, the clock, the sensor and the transition log are pure
    # functions of the index trajectory.  ``feedback`` therefore runs a
    # ~4-operation step inside the frame loop and ``materialise`` computes
    # every remaining column as one (frames x members) matrix afterwards —
    # same IEEE operations on the same operands, just batched over frames.

    def feedback(self, frame: int, indices):
        """Deferred-mode step: only the quantities the next decide() observes.

        Returns ``(busy, duration, transition_latency)`` as ``(S,)`` arrays
        and tracks the running operating point; everything else is produced
        by :meth:`materialise` once the index trajectory is complete.
        """
        np = self.np
        changed = indices != self.current
        self.current = indices
        transition_latency = np.where(changed, self.latency, 0.0)
        busy = self.max_cycles[frame] * self.spc[indices]
        if self.pad_to_deadline:
            deadline = self.deadlines[frame]
            duration = np.where(deadline > busy, deadline, busy) + transition_latency
        else:
            duration = busy + transition_latency
        return busy, duration, transition_latency

    def materialise(self, columns: "_FamilyColumns", base_overhead, charge: bool):
        """Vectorised epilogue: fill every column from the index trajectory.

        ``columns.opp`` must hold the full (frames x members) trajectory.
        ``base_overhead=None`` means the runner already stored the overhead
        column (the RL family needs it in-loop as decide feedback).
        """
        np = self.np
        opp = columns.opp
        num_frames = opp.shape[0]
        prev = np.empty_like(opp)
        prev[0] = self.initial_index
        prev[1:] = opp[:-1]
        changed = opp != prev
        bad = changed & ((opp < 0) | (opp >= self.num_points))
        if bad.any():
            first_bad = np.nonzero(bad)
            offender = int(opp[first_bad[0][0], first_bad[1][0]])
            raise InvalidOperatingPointError(
                f"operating-point index {offender} out of range "
                f"(0..{self.num_points - 1})"
            )
        transition_latency = np.where(changed, self.latency, 0.0)
        transition_energy = np.where(changed, self.transition_energy_j, 0.0)
        spc_gathered = self.spc[opp]
        busy = self.max_cycles_array[:, None] * spc_gathered
        if self.pad_to_deadline:
            deadline_column = self.deadlines_array[:, None]
            base = np.where(deadline_column > busy, deadline_column, busy)
        else:
            base = busy
        duration = base + transition_latency
        core_uncore = np.take_along_axis(self.energy_table, opp, axis=1)
        energy = core_uncore + transition_energy
        positive = duration > 0
        power = np.where(positive, energy / np.where(positive, duration, 1.0), 0.0)

        # The clock is a strictly sequential accumulation; add.accumulate
        # applies the same left-to-right float adds as the scalar loop.
        clock = np.empty((num_frames + 1, self.size))
        clock[0] = self.initial_time
        clock[1:] = duration
        clock = np.add.accumulate(clock, axis=0)
        self.time = np.ascontiguousarray(clock[-1])
        self.current = np.ascontiguousarray(opp[-1])

        columns.busy = busy
        columns.duration = duration
        columns.energy = energy
        columns.power = power
        columns.measured = self._measure_deferred(power, duration, clock)
        if base_overhead is not None:
            if charge:
                columns.overhead = base_overhead[None, :] + transition_latency
            else:
                columns.overhead = np.zeros((num_frames, self.size))
        self._record_transitions(changed, prev, opp, clock)
        self.spc_matrix = spc_gathered
        self.intervals_matrix = base
        self.core_matrix = core_uncore
        self.te_matrix = transition_energy

    def _measure_deferred(self, power, duration, clock):
        """Vectorised sensor sweep over the whole (frames x members) grid."""
        np = self.np
        num_frames = power.shape[0]
        times = clock[1:]
        if not self.vector_sensor:
            # Noisy / history-recording sensors step scalar, in the same
            # member-within-frame order as the lock-step loop.
            measured = np.empty_like(power)
            sensors = self.sensors
            for frame in range(num_frames):
                measured[frame] = [
                    sensor.measure_w(true_power, timestamp)
                    for sensor, true_power, timestamp in zip(
                        sensors, power[frame].tolist(), times[frame].tolist()
                    )
                ]
            return measured
        quantised = np.where(
            self.sensor_quantises,
            np.rint(power / self._resolution_safe) * self.sensor_resolution,
            power,
        )
        candidate = np.maximum(0.0, quantised)
        period = self.sensor_period
        # When every frame outlasts every member's sample period, each
        # reading is fresh (induction: a fresh frame resets the holdover
        # clock, and the next frame's duration already exceeds the period),
        # so the holdover scan collapses to the candidate matrix.
        all_fresh = bool(
            np.all(
                (duration.min(axis=0) >= period)
                & (
                    (~self.sensor_has_last)
                    | ((times[0] - self.sensor_last_time) >= period)
                )
            )
        )
        if all_fresh:
            self.sensor_last_time = np.ascontiguousarray(times[-1])
            self.sensor_last_power = np.ascontiguousarray(candidate[-1])
            self.sensor_has_last = np.ones(self.size, dtype=bool)
            return candidate
        measured = np.empty_like(power)
        has_last = self.sensor_has_last
        last_time = self.sensor_last_time
        last_power = self.sensor_last_power
        for frame in range(num_frames):
            now = times[frame]
            fresh = (~has_last) | ((now - last_time) >= period)
            row = candidate[frame]
            measured[frame] = np.where(fresh, row, last_power)
            last_time = np.where(fresh, now, last_time)
            last_power = np.where(fresh, row, last_power)
            has_last = has_last | fresh
        self.sensor_has_last = has_last
        self.sensor_last_time = last_time
        self.sensor_last_power = last_power
        return measured

    def _record_transitions(self, changed, prev, opp, clock) -> None:
        """Build each member's transition log from the changed matrix.

        ``clock[frame]`` is the member's clock *before* the frame — exactly
        the timestamp the scalar engine stamps on a start-of-frame switch.
        """
        np = self.np
        frames_hit, members_hit = np.nonzero(changed)
        if not frames_hit.size:
            return
        # Regroup the frame-major hits into per-member, frame-ordered column
        # blocks (the stable sort preserves chronological order within each
        # member).  No DVFSTransition is built here: the columns are handed
        # to each cluster's actuator, which materialises records lazily.
        order = np.argsort(members_hit, kind="stable")
        whens = clock[frames_hit, members_hit][order].tolist()
        sources = prev[frames_hit, members_hit][order].tolist()
        targets = opp[frames_hit, members_hit][order].tolist()
        counts = np.bincount(members_hit, minlength=self.size).tolist()
        columns = self.transition_columns
        start = 0
        for member, count in enumerate(counts):
            if count:
                stop = start + count
                columns[member] = (
                    whens[start:stop],
                    sources[start:stop],
                    targets[start:stop],
                )
                start = stop

    def finish(self) -> None:
        """Write vectorised sensor state back onto the live sensors."""
        if not self.vector_sensor:
            return
        last_times = self.sensor_last_time.tolist()
        last_powers = self.sensor_last_power.tolist()
        for member, sensor in enumerate(self.sensors):
            if self.sensor_has_last[member]:
                sensor._last_time_s = last_times[member]
                sensor._last_power_w = last_powers[member]


class _FamilyColumns:
    """Per-family (frame × member) column store."""

    def __init__(self, np, num_frames: int, size: int, thermal: bool) -> None:
        self.opp = np.empty((num_frames, size), dtype=np.intp)
        self.busy = np.empty((num_frames, size))
        self.overhead = np.empty((num_frames, size))
        self.duration = np.empty((num_frames, size))
        self.energy = np.empty((num_frames, size))
        self.power = np.empty((num_frames, size))
        self.measured = np.empty((num_frames, size))
        self.explored = np.zeros((num_frames, size), dtype=bool)
        if thermal:
            self.temperature = np.empty((num_frames, size))
            self.core_uncore = np.empty((num_frames, size))
        else:
            self.temperature = None
            self.core_uncore = None
        #: Per-member python-list views, built once per family by
        #: :func:`_bulk_column_lists` after the runner finishes.
        self.lists = None

    def store(self, frame, step, overhead) -> None:
        busy, duration, energy, power, measured, _tl, core_uncore = step
        self.busy[frame] = busy
        self.overhead[frame] = overhead
        self.duration[frame] = duration
        self.energy[frame] = energy
        self.power[frame] = power
        self.measured[frame] = measured
        self.core_uncore[frame] = core_uncore


# ---------------------------------------------------------------------------
# Governor families
# ---------------------------------------------------------------------------


def _overhead_for(np, charge: bool, base, transition_latency):
    if not charge:
        return np.zeros(transition_latency.shape)
    return base + transition_latency


def _run_static(np, clusters, governors, application, config, tables, thermal):
    size = len(governors)
    num_frames = tables.num_frames
    physics = _BatchPhysics(np, clusters, tables, config, thermal)
    columns = _FamilyColumns(np, num_frames, size, thermal)
    # A pinned governor's decide() is stateless; one call fixes the index.
    indices = np.array(
        [governor.decide(None, None) for governor in governors], dtype=np.intp
    )
    base_overhead = np.array(
        [static_processing_overhead(governor) for governor in governors]
    )
    charge = config.charge_governor_overhead
    if not thermal:
        # A pinned trajectory needs no frame loop at all: broadcast the
        # index row and let the epilogue produce every column.
        columns.opp[:] = indices
        physics.materialise(columns, base_overhead, charge)
        return physics, columns
    for frame in range(num_frames):
        step = physics.step(frame, indices)
        columns.opp[frame] = indices
        columns.store(frame, step, _overhead_for(np, charge, base_overhead, step[5]))
        columns.temperature[frame] = physics.temperature
    return physics, columns


def _vector_load(np, busy_prev, duration_prev):
    """Vectorised :func:`repro.governors.base.observed_load`."""
    positive = duration_prev > 0
    ratio = busy_prev / np.where(positive, duration_prev, 1.0)
    return np.where(positive, np.maximum(0.0, np.minimum(1.0, ratio)), 0.0)


def _decide_feedback_tables(np, physics, frequencies):
    """Precompute everything a load-threshold decide() can ever observe.

    In deferred (isothermal table) mode the observation a threshold governor
    sees at frame ``f`` is fully determined by ``(f - 1, index, changed)``:
    ``busy = max_cycles[f-1] * spc[index]`` and ``duration`` differs only by
    the transition latency when the previous decide changed the index.  That
    is an ``(F, P, 2)`` table — tiny next to ``F × S`` — so the per-frame
    loop shrinks to one flat gather plus the threshold arithmetic, with no
    physics call at all.  Every element is produced by the same IEEE ops on
    the same operands as :meth:`_BatchPhysics.feedback`, so the gathered
    loads are bit-identical to the ones the feedback loop would have fed the
    governor.

    Returns ``(flat_load, flat_freq_load)`` where element
    ``(f * P + i) * 2 + c`` holds the observed load (and
    ``frequency[i] * load``, the proportional-scaling numerator) after
    frame ``f`` at index ``i`` with ``changed = c``.  Requires every member
    to share the transition latency (guaranteed whenever the members share
    the cluster physics, which :func:`simulate_batch` validates).
    """
    busy = physics.max_cycles_array[:, None] * physics.spc[None, :]
    if physics.pad_to_deadline:
        deadline_column = physics.deadlines_array[:, None]
        base = np.where(deadline_column > busy, deadline_column, busy)
    else:
        base = busy
    latency = physics._latency[0]
    load0 = _vector_load(np, busy, base + 0.0)
    load1 = _vector_load(np, busy, base + latency)
    num_frames, num_points = busy.shape
    load = np.empty((num_frames, num_points, 2))
    load[:, :, 0] = load0
    load[:, :, 1] = load1
    freq_load = np.empty((num_frames, num_points, 2))
    freq_load[:, :, 0] = frequencies[None, :] * load0
    freq_load[:, :, 1] = frequencies[None, :] * load1
    return load.reshape(-1), freq_load.reshape(-1)


def _run_ondemand(np, clusters, governors, application, config, tables, thermal):
    size = len(governors)
    num_frames = tables.num_frames
    physics = _BatchPhysics(np, clusters, tables, config, thermal)
    columns = _FamilyColumns(np, num_frames, size, thermal)
    frequencies = np.asarray(tables.frequencies_hz, dtype=float)
    max_index = tables.num_points - 1
    up_threshold = np.array([governor._up_threshold for governor in governors])
    sampling_down = np.array(
        [governor._sampling_down_factor for governor in governors], dtype=np.int64
    )
    min_frequency = np.array([governor._min_frequency_hz for governor in governors])
    hold = np.array(
        [governor._hold_remaining for governor in governors], dtype=np.int64
    )
    base_overhead = np.array(
        [static_processing_overhead(governor) for governor in governors]
    )
    charge = config.charge_governor_overhead
    # Deferred decides: with isothermal table physics and a single hold
    # window (the kernel default), the loop needs no physics call and no
    # hold counter — one gather into the precomputed observation tables
    # replaces the whole feedback step.  ``hold > 1`` can then never hold
    # (it decays to {0, 1} immediately), so only the last frame's
    # threshold test determines the written-back counter.
    fast = (
        not thermal
        and len(set(physics._latency)) == 1
        and bool((sampling_down == 1).all())
        and bool((hold <= 1).all())
    )
    if fast:
        flat_load, flat_freq_load = _decide_feedback_tables(np, physics, frequencies)
        num_points = tables.num_points
        max_index_scalar = np.intp(max_index)
        take = np.take
        indices = np.full(size, max_index, dtype=np.intp)
        changed = indices != physics.current
        high = None
        columns.opp[0] = indices
        for frame in range(1, num_frames):
            flat = indices * 2
            flat += changed
            flat += (frame - 1) * 2 * num_points
            load = take(flat_load, flat)
            target = take(flat_freq_load, flat)
            high = load > up_threshold
            target = target / up_threshold
            np.maximum(target, min_frequency, out=target)
            target -= 1e-6
            scaled = np.minimum(
                np.searchsorted(frequencies, target, side="left"), max_index
            )
            new_indices = np.where(high, max_index_scalar, scaled)
            changed = new_indices != indices
            indices = new_indices
            columns.opp[frame] = indices
        if high is not None:
            hold = np.where(high, sampling_down, 0)
        physics.materialise(columns, base_overhead, charge)
    else:
        busy_prev = duration_prev = indices = None
        for frame in range(num_frames):
            if frame == 0:
                indices = np.full(size, max_index, dtype=np.intp)
            else:
                load = _vector_load(np, busy_prev, duration_prev)
                current_frequency = frequencies[indices]
                high = load > up_threshold
                holding = (~high) & (hold > 1)
                hold = np.where(high, sampling_down, np.where(holding, hold - 1, 0))
                target = np.maximum(
                    current_frequency * load / up_threshold, min_frequency
                )
                scaled = np.minimum(
                    np.searchsorted(frequencies, target - 1e-6, side="left"), max_index
                )
                indices = np.where(high | holding, max_index, scaled).astype(np.intp)
            columns.opp[frame] = indices
            if thermal:
                step = physics.step(frame, indices)
                columns.store(
                    frame, step, _overhead_for(np, charge, base_overhead, step[5])
                )
                columns.temperature[frame] = physics.temperature
                busy_prev, duration_prev = step[0], step[1]
            else:
                busy_prev, duration_prev, _latency = physics.feedback(frame, indices)
        if not thermal:
            physics.materialise(columns, base_overhead, charge)
    hold_list = hold.tolist()
    for member, governor in enumerate(governors):
        governor._hold_remaining = hold_list[member]
    return physics, columns


def _run_conservative(np, clusters, governors, application, config, tables, thermal):
    size = len(governors)
    num_frames = tables.num_frames
    physics = _BatchPhysics(np, clusters, tables, config, thermal)
    columns = _FamilyColumns(np, num_frames, size, thermal)
    max_index = tables.num_points - 1
    up_threshold = np.array([governor._up_threshold for governor in governors])
    down_threshold = np.array([governor._down_threshold for governor in governors])
    step_indices = np.array(
        [governor._freq_step_indices for governor in governors], dtype=np.int64
    )
    base_overhead = np.array(
        [static_processing_overhead(governor) for governor in governors]
    )
    charge = config.charge_governor_overhead
    if not thermal and len(set(physics._latency)) == 1:
        # Deferred decides (see _run_ondemand): one gather into the
        # precomputed observation table replaces the feedback step.
        frequencies = np.asarray(tables.frequencies_hz, dtype=float)
        flat_load, _flat_freq_load = _decide_feedback_tables(
            np, physics, frequencies
        )
        num_points = tables.num_points
        take = np.take
        indices = np.full(size, max_index, dtype=np.intp)
        changed = indices != physics.current
        columns.opp[0] = indices
        for frame in range(1, num_frames):
            flat = indices * 2
            flat += changed
            flat += (frame - 1) * 2 * num_points
            load = take(flat_load, flat)
            stepped = np.where(
                load > up_threshold,
                indices + step_indices,
                np.where(load < down_threshold, indices - step_indices, indices),
            )
            new_indices = np.minimum(np.maximum(stepped, 0), max_index).astype(
                np.intp
            )
            changed = new_indices != indices
            indices = new_indices
            columns.opp[frame] = indices
        physics.materialise(columns, base_overhead, charge)
        return physics, columns
    busy_prev = duration_prev = indices = None
    for frame in range(num_frames):
        if frame == 0:
            indices = np.full(size, max_index, dtype=np.intp)
        else:
            load = _vector_load(np, busy_prev, duration_prev)
            stepped = np.where(
                load > up_threshold,
                indices + step_indices,
                np.where(load < down_threshold, indices - step_indices, indices),
            )
            indices = np.minimum(np.maximum(stepped, 0), max_index).astype(np.intp)
        columns.opp[frame] = indices
        if thermal:
            step = physics.step(frame, indices)
            columns.store(
                frame, step, _overhead_for(np, charge, base_overhead, step[5])
            )
            columns.temperature[frame] = physics.temperature
            busy_prev, duration_prev = step[0], step[1]
        else:
            busy_prev, duration_prev, _latency = physics.feedback(frame, indices)
    if not thermal:
        physics.materialise(columns, base_overhead, charge)
    return physics, columns


def _run_rl(np, clusters, governors, application, config, tables, thermal):
    """Vectorised :class:`RLGovernor` batch (one structure subgroup).

    All members share (workload levels, slack levels, slack window, EWMA
    gamma) — and, via the batch contract, the trace and platform — so the
    workload-prediction chain is batch-invariant and replayed once; every
    other hyper-parameter is a per-member array.
    """
    size = len(governors)
    num_frames = tables.num_frames
    physics = _BatchPhysics(np, clusters, tables, config, thermal)
    columns = _FamilyColumns(np, num_frames, size, thermal)
    charge = config.charge_governor_overhead

    first = governors[0]
    state_space = first.state_space
    slack_levels = state_space._s_levels
    slack_lower = state_space._s_lower
    slack_span = state_space._s_span
    reference = first.slack_tracker.reference_time_s
    window = first.config.slack_window
    num_actions = first.agent.qtable.num_actions

    # -- batch-invariant workload chain, replayed once in scalar Python ------
    # Frame f's decide() observes frame f-1's max_cycles, which is a trace
    # property shared by every member; range tracking, EWMA prediction and
    # workload discretisation are pure functions of that sequence.
    replica_tracker = WorkloadRangeTracker()
    replica_predictor = EWMAPredictor(gamma=first.config.ewma_gamma)
    workload_level = [0] * num_frames
    cycles_tuples = tables.cycles_tuples
    for frame in range(1, num_frames):
        actual = max(cycles_tuples[frame - 1])
        replica_tracker.observe(actual)
        predicted = replica_predictor.observe(actual)
        normalised = replica_tracker.normalise(predicted)
        workload_level[frame] = (
            state_space.state_index(normalised, 0.0) // slack_levels
        )

    # -- per-member hyper-parameter arrays -----------------------------------
    rewards = [governor.config.reward for governor in governors]
    miss_penalty = np.array([r.miss_penalty_weight for r in rewards])
    slack_weight = np.array([r.slack_weight for r in rewards])
    delta_weight = np.array([r.delta_weight for r in rewards])
    over_penalty = np.array([r.overperformance_penalty for r in rewards])
    target_slack = np.array([r.target_slack for r in rewards])
    overhead_learning = np.array(
        [governor._overhead_learning_s for governor in governors]
    )
    overhead_exploiting = np.array(
        [governor._overhead_exploiting_s for governor in governors]
    )
    convergence_window = np.array(
        [governor.config.convergence_window for governor in governors],
        dtype=np.int64,
    )

    batch = BatchedAgents([governor.agent for governor in governors], np)

    # -- batched mutable state ------------------------------------------------
    conv_last_unstable = np.zeros(size, dtype=np.int64)
    conv_converged = np.full(size, -1, dtype=np.int64)
    any_conv_active = True
    previous_count = np.array(
        [governor.exploration_count for governor in governors], dtype=np.int64
    )
    frozen = np.array(
        [governor.exploration_frozen for governor in governors], dtype=bool
    )
    all_frozen = bool(frozen.all())
    window_buffer: Optional["deque"] = (
        deque(maxlen=window) if window is not None else None
    )
    running_sum = np.zeros(size)
    slack_store = np.zeros((num_frames, size))
    average_store = np.zeros((num_frames, size))
    reward_store = np.zeros((num_frames, size))
    pending_state = pending_action = None
    base_overhead = overhead_learning
    busy_prev = overhead_prev = None

    for frame in range(num_frames):
        if frame == 0:
            initial_state = state_space.state_index(1.0, 0.0)
            initial_action = num_actions - 1
            batch.record_visit(initial_state, initial_action)
            pending_state = np.full(size, initial_state, dtype=np.intp)
            pending_action = np.full(size, initial_action, dtype=np.intp)
            base_overhead = overhead_learning
            indices = np.full(size, initial_action, dtype=np.intp)
        else:
            # (1) Pay-off for the epoch that just finished (eqs. 4 and 5),
            # exactly SlackTracker.update + compute_reward + miss penalty.
            slack = (reference - busy_prev) - overhead_prev
            slack_store[frame] = slack
            if window is None:
                running_sum = running_sum + slack
                average = running_sum / (frame * reference)
            else:
                window_buffer.append(slack)
                total = window_buffer[0]
                for chunk in islice(window_buffer, 1, None):
                    total = total + chunk
                average = total / (len(window_buffer) * reference)
            average_store[frame] = average
            if frame >= 2:
                slack_delta = average - average_store[frame - 1]
            else:
                slack_delta = average
            excess = np.maximum(0.0, average - target_slack)
            slack_term = np.where(
                average < 0.0,
                (-miss_penalty) * (-average),
                slack_weight * (1.0 - over_penalty * excess),
            )
            progress_reward = slack_term + delta_weight * slack_delta
            instantaneous = slack / reference
            reward = np.where(
                instantaneous < 0.0,
                progress_reward - miss_penalty * (-instantaneous),
                progress_reward,
            )
            reward_store[frame] = reward

            # (3) State mapping: shared workload level × vectorised slack level.
            slack_fraction = (average - slack_lower) / slack_span * slack_levels
            slack_level = np.minimum(
                np.maximum(slack_fraction.astype(np.intp), 0), slack_levels - 1
            )
            next_state = (workload_level[frame] * slack_levels + slack_level).astype(
                np.intp
            )

            # (2) Fused Bellman update + ε-greedy selection, batched.
            next_action, _explored, exploiting = batch.update_and_select(
                pending_state,
                pending_action,
                reward,
                next_state,
                average,
                progress_reward,
            )
            if any_conv_active:
                changed_policy = batch.last_update_changed_policy
                unstable = (~exploiting) | changed_policy
                conv_active = conv_converged < 0
                conv_last_unstable = np.where(
                    conv_active & unstable, frame, conv_last_unstable
                )
                declare = (
                    conv_active
                    & (~unstable)
                    & (frame >= convergence_window)
                    & ((frame - conv_last_unstable) >= convergence_window)
                )
                if declare.any():
                    conv_converged = np.where(
                        declare, frame - convergence_window, conv_converged
                    )
                    any_conv_active = bool((conv_converged < 0).any())
            pending_state = next_state
            pending_action = next_action
            base_overhead = np.where(
                exploiting, overhead_exploiting, overhead_learning
            )
            indices = next_action.astype(np.intp)

        columns.opp[frame] = indices
        if thermal:
            step = physics.step(frame, indices)
            overhead = _overhead_for(np, charge, base_overhead, step[5])
            columns.store(frame, step, overhead)
            columns.temperature[frame] = physics.temperature
            busy = step[0]
        else:
            busy, _duration, transition_latency = physics.feedback(frame, indices)
            overhead = _overhead_for(np, charge, base_overhead, transition_latency)
            columns.overhead[frame] = overhead

        # Exploration-count polling, exactly as the per-scenario engines
        # (including the one-frame-stale frozen flag).  A frozen member's
        # explored flag stays False and its counters stop moving, so once
        # the whole family is frozen the poll is a no-op (the column is
        # already False-initialised).
        if not all_frozen:
            active = ~frozen
            count = np.where(
                batch.exploitation_start < 0,
                batch.selection_count,
                batch.exploitation_start,
            )
            columns.explored[frame] = active & (count > previous_count)
            previous_count = np.where(active, count, previous_count)
            frozen = np.where(active, batch.is_exploiting(), frozen)
            all_frozen = bool(frozen.all())

        busy_prev, overhead_prev = busy, overhead

    if not thermal:
        # Overhead was stored in-loop (it feeds the next epoch's slack);
        # materialise computes every other column.
        physics.materialise(columns, None, charge)

    # -- restore per-member scalar governor state -----------------------------
    batch.write_back()
    epochs = num_frames - 1
    keep = epochs if window is None else min(epochs, window)
    base_overhead_list = base_overhead.tolist()
    pending_state_list = pending_state.tolist()
    pending_action_list = pending_action.tolist()
    conv_last_list = conv_last_unstable.tolist()
    conv_converged_list = conv_converged.tolist()
    shared_records = replica_predictor._records
    for member, governor in enumerate(governors):
        tracker = governor._slack_tracker
        tracker._slacks_s = deque(
            slack_store[num_frames - keep : num_frames, member].tolist(),
            maxlen=window,
        )
        if window is None:
            tracker._running_sum = float(running_sum[member])
        tracker._epochs = epochs
        history = average_store[1:num_frames, member].tolist()
        tracker._history = history
        tracker._last_average = history[-1] if history else 0.0

        predictor = governor._predictor
        predictor._state = replica_predictor._state
        predictor._last_prediction = replica_predictor._last_prediction
        predictor._epoch = replica_predictor._epoch
        predictor._records = list(shared_records)

        range_tracker = governor._range_tracker
        range_tracker._low = replica_tracker._low
        range_tracker._high = replica_tracker._high
        range_tracker._cached_bounds = replica_tracker._cached_bounds

        governor._pending_state = pending_state_list[member]
        governor._pending_action = pending_action_list[member]
        governor._last_overhead_s = base_overhead_list[member]
        governor._reward_history = reward_store[1:num_frames, member].tolist()

        convergence = governor._convergence
        convergence._epoch = epochs
        convergence._last_unstable_epoch = conv_last_list[member]
        converged = conv_converged_list[member]
        convergence._converged_epoch = None if converged < 0 else converged
    return physics, columns


# ---------------------------------------------------------------------------
# Partitioning and assembly
# ---------------------------------------------------------------------------


def _family_key(governor: "Governor"):
    """Vectorisation family (and RL structure subgroup) of ``governor``.

    Exact-type checks route subclasses (the many-core RL formulations, a
    customised ondemand) to the generic family, which runs on the
    per-scenario table engine and is therefore correct for any governor.
    """
    governor_type = type(governor)
    if governor_type is OndemandGovernor and static_processing_overhead(
        governor
    ) is not None:
        return ("ondemand",)
    if governor_type is ConservativeGovernor and static_processing_overhead(
        governor
    ) is not None:
        return ("conservative",)
    if governor_type is RLGovernor:
        config = governor.config
        return (
            "rl",
            config.workload_levels,
            config.slack_levels,
            config.slack_window,
            config.ewma_gamma,
        )
    if (
        isinstance(governor, StaticGovernor)
        and type(governor).decide is StaticGovernor.decide
        and static_processing_overhead(governor) is not None
    ):
        return ("static",)
    return ("generic",)


_FAMILY_RUNNERS = {
    "static": _run_static,
    "ondemand": _run_ondemand,
    "conservative": _run_conservative,
    "rl": _run_rl,
}


def simulate_batch(
    members: Sequence[BatchMember],
    application: "Application",
    config: "SimulationConfig",
    tables=None,
    scalar_cutoffs: Optional[Dict[str, Dict[str, int]]] = None,
) -> List[SimulationResult]:
    """Step every member through ``application`` simultaneously.

    Clusters and governors are used as-is (the caller resets and sets them
    up first — see :func:`run_batch`); each cluster is left in
    scalar-equivalent aggregate state and each governor holds exactly the
    state a solo run would have left.  Results are returned in member order.

    All members must share the application trace, the thermal mode and the
    cluster physics described by ``tables`` (validated before stepping);
    ``tables`` is rebuilt from the first member when missing or mismatched.

    ``scalar_cutoffs`` (thermal mode → family kind → minimum width, see
    :data:`DEFAULT_SCALAR_CUTOFFS` for the measured crossovers) routes
    families too narrow to amortise the batch axis through the per-scenario
    table engine instead — same results, shorter wall clock.  The batch's
    own thermal mode picks the row.  ``None`` (the default) vectorises
    every family that has a runner; generic governors take the
    per-scenario engine either way.
    """
    np = _np
    if np is None:
        raise SimulationError("the batched multi-scenario engine requires numpy")
    members = list(members)
    if not members:
        return []
    clusters = [cluster for cluster, _governor in members]
    governors = [governor for _cluster, governor in members]
    num_frames = application.num_frames
    if num_frames == 0:
        raise SimulationError("cannot simulate an application with no frames")
    thermal = clusters[0].thermal_model.enabled
    for cluster in clusters[1:]:
        if cluster.thermal_model.enabled != thermal:
            raise SimulationError(
                "all members of a batch must share the thermal mode"
            )
    expected_table = ThermalWorkloadTable if thermal else WorkloadTable
    if (
        tables is None
        or not isinstance(tables, expected_table)
        or tables.num_frames != num_frames
        or not tables.matches(clusters[0], config.idle_until_deadline)
    ):
        tables = precompute_tables(clusters[0], application, config)
    for cluster in clusters[1:]:
        if not tables.matches(cluster, config.idle_until_deadline):
            raise SimulationError(
                "all members of a batch must share the cluster physics"
            )

    partitions: Dict[tuple, List[int]] = {}
    for position, governor in enumerate(governors):
        partitions.setdefault(_family_key(governor), []).append(position)

    results: List[Optional[SimulationResult]] = [None] * len(members)
    deadlines = tables.deadlines_s.tolist()
    frequencies_mhz = np.asarray(tables.frequencies_mhz)
    frequencies_hz = np.asarray(tables.frequencies_hz)
    # FrameColumns copies its inputs, so the batch-invariant columns are
    # built once and shared across every member (as ``deadlines`` and
    # ``cycles_tuples`` already are).
    shared_index = list(range(num_frames))
    shared_temperature = None if thermal else [tables.temperature_c] * num_frames
    cutoffs = (scalar_cutoffs or {}).get("thermal" if thermal else "isothermal", {})
    for key, positions in partitions.items():
        runner = _FAMILY_RUNNERS.get(key[0])
        if runner is None or len(positions) < cutoffs.get(key[0], 0):
            # No vectorised runner, or too narrow to amortise the batch
            # axis: the per-scenario table engine is faster and bit-equal
            # by contract.
            scalar_engine = thermalpath if thermal else tablepath
            for position in positions:
                results[position] = _compact_result(
                    np,
                    scalar_engine.simulate_closed_loop(
                        clusters[position],
                        application,
                        governors[position],
                        config,
                        tables,
                    ),
                    deadlines,
                    tables.cycles_tuples,
                    shared_index,
                    shared_temperature,
                    frequencies_mhz,
                )
            continue
        family_clusters = [clusters[position] for position in positions]
        family_governors = [governors[position] for position in positions]
        physics, columns = runner(
            np, family_clusters, family_governors, application, config, tables, thermal
        )
        physics.finish()
        for member, position in enumerate(positions):
            results[position] = _finalise_member(
                np,
                clusters[position],
                governors[position],
                application,
                tables,
                thermal,
                physics,
                columns,
                member,
                deadlines,
                shared_index,
                shared_temperature,
                frequencies_hz,
                frequencies_mhz,
            )
    return results  # type: ignore[return-value]


def _compact_result(
    np,
    result: SimulationResult,
    deadlines: List[float],
    cycles_tuples,
    shared_index: List[int],
    shared_temperature: Optional[List[float]],
    frequencies_mhz,
) -> SimulationResult:
    """Re-home a per-scenario result's columns in the batch's compact form.

    The per-scenario engines return eager Python-list columns; a batch
    keeps each member's value columns as NumPy arrays, the batch-invariant
    ones by reference, and builds lists only on first read (exactly as
    :func:`_finalise_member` does).  ``tolist`` round-trips every native
    float, int and bool unchanged, and the derived columns are recomputed
    with the engines' own operations, so the columns read back identical.
    """
    eager = result.columns
    opp = np.asarray(eager.operating_index, dtype=np.intp)
    busy = np.asarray(eager.busy_time_s)
    overhead = np.asarray(eager.overhead_time_s)
    values = {
        "interval_s": np.asarray(eager.interval_s),
        "energy_j": np.asarray(eager.energy_j),
        "average_power_w": np.asarray(eager.average_power_w),
        "measured_power_w": np.asarray(eager.measured_power_w),
        "explored": np.asarray(eager.explored, dtype=bool),
    }
    if shared_temperature is None:
        values["temperature_c"] = np.asarray(eager.temperature_c)

    def load_columns():
        columns = {name: column.tolist() for name, column in values.items()}
        columns.update(
            index=shared_index,
            operating_index=opp.tolist(),
            frequency_mhz=frequencies_mhz[opp].tolist(),
            cycles_per_core=cycles_tuples,
            busy_time_s=busy.tolist(),
            overhead_time_s=overhead.tolist(),
            frame_time_s=(busy + overhead).tolist(),
            deadline_s=deadlines,
        )
        if shared_temperature is not None:
            columns["temperature_c"] = shared_temperature
        return columns

    return SimulationResult(
        governor_name=result.governor_name,
        application_name=result.application_name,
        reference_time_s=result.reference_time_s,
        exploration_count=result.exploration_count,
        converged_epoch=result.converged_epoch,
        columns=FrameColumns.from_deferred(load_columns),
    )


def _bulk_column_lists(np, columns: _FamilyColumns, frequencies_mhz, thermal) -> None:
    """Transpose the family's column matrices into per-member Python lists.

    One ``tolist`` per column for the whole family instead of one per
    (column, member) pair — the dominant cost of scattering results back
    into per-scenario form at large batch sizes.  Families that never
    explore (everything but RL) share a single all-False column between
    members instead of S identical copies.
    """

    def by_member(matrix):
        return matrix.T.tolist()

    lists = {
        "opp": by_member(columns.opp),
        "frequency": by_member(frequencies_mhz[columns.opp]),
        "busy": by_member(columns.busy),
        "overhead": by_member(columns.overhead),
        "frame_time": by_member(columns.busy + columns.overhead),
        "duration": by_member(columns.duration),
        "energy": by_member(columns.energy),
        "power": by_member(columns.power),
        "measured": by_member(columns.measured),
    }
    if columns.explored.any():
        lists["explored"] = by_member(columns.explored)
    else:
        num_frames, size = columns.explored.shape
        shared = [False] * num_frames
        lists["explored"] = [shared] * size
    if thermal:
        lists["temperature"] = by_member(columns.temperature)
    columns.lists = lists


def _finalise_member(
    np,
    cluster,
    governor,
    application,
    tables,
    thermal: bool,
    physics: _BatchPhysics,
    columns: _FamilyColumns,
    member: int,
    deadlines: List[float],
    shared_index: List[int],
    shared_temperature: Optional[List[float]],
    frequencies_hz,
    frequencies_mhz,
) -> SimulationResult:
    """Scatter one member's columns into a result and sync its cluster."""
    num_frames = tables.num_frames

    def load_columns():
        # First column read of any of this family's members converts the
        # family matrices to per-member lists in one bulk pass; every
        # sibling's loader then reads the cached ``columns.lists``.  The
        # batch owns every per-member list and deliberately shares the
        # batch-invariant ones; nothing mutates them.
        if columns.lists is None:
            _bulk_column_lists(np, columns, frequencies_mhz, thermal)
        lists = columns.lists
        return {
            "index": shared_index,
            "operating_index": lists["opp"][member],
            "frequency_mhz": lists["frequency"][member],
            "cycles_per_core": tables.cycles_tuples,
            "busy_time_s": lists["busy"][member],
            "overhead_time_s": lists["overhead"][member],
            "frame_time_s": lists["frame_time"][member],
            "interval_s": lists["duration"][member],
            "deadline_s": deadlines,
            "energy_j": lists["energy"][member],
            "average_power_w": lists["power"][member],
            "measured_power_w": lists["measured"][member],
            "temperature_c": lists["temperature"][member] if thermal else shared_temperature,
            "explored": lists["explored"][member],
        }

    indices = columns.opp[:, member]
    frame_columns = FrameColumns.from_deferred(load_columns)
    result = SimulationResult(
        governor_name=governor.name,
        application_name=application.name,
        reference_time_s=application.reference_time_s,
        columns=frame_columns,
    )

    if physics.spc_matrix is not None:
        # Deferred mode already holds every per-frame quantity as a matrix.
        busy_times = tables.cycles * physics.spc_matrix[:, member][:, None]
        intervals = np.ascontiguousarray(physics.intervals_matrix[:, member])
        core_uncore_energy = np.ascontiguousarray(physics.core_matrix[:, member])
        transition_energy = np.ascontiguousarray(physics.te_matrix[:, member])
    else:
        # Thermal batches step frame by frame and stored the energies.
        rows = np.arange(num_frames)
        seconds_per_cycle = np.asarray(tables.seconds_per_cycle)
        busy_times = tables.cycles * seconds_per_cycle[indices][:, None]
        intervals = tables.interval[rows, indices]
        core_uncore_energy = np.ascontiguousarray(columns.core_uncore[:, member])
        previous_indices = np.empty_like(indices)
        previous_indices[0] = physics.initial_index[member]
        previous_indices[1:] = indices[:-1]
        changed = indices != previous_indices
        transition_energy = np.where(
            changed, physics._transition_energy[member], 0.0
        )
    idle_times = intervals[:, None] - busy_times
    fastpath._sync_cluster(
        cluster,
        np,
        cycles=tables.cycles,
        busy_times=busy_times,
        idle_times=idle_times,
        frequencies_hz=frequencies_hz,
        indices=indices,
        intervals=intervals,
        core_uncore_energy=core_uncore_energy,
        transition_energy=transition_energy,
        transitions=physics.transitions[member],
        total_duration=float(physics.time[member] - physics.initial_time[member]),
        transition_columns=physics.transition_columns[member],
    )
    if thermal:
        cluster.thermal_model.absorb_state(
            float(physics.temperature[member]), int(physics.throttle_total[member])
        )

    result.exploration_count = governor.exploration_count
    result.converged_epoch = governor.converged_epoch
    return result
