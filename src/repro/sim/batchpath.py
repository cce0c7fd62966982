"""Planner-group engine: members that share one application and one table.

The campaign batch planner (:func:`repro.campaign.executor.plan_batches`)
groups scenarios that share an application, a cluster spec and a
simulation config, so the whole group needs one generated application and
one precomputed (frame × operating-point) physics table.  This module runs
such a group: it checks that every member shares the thermal mode and the
cluster physics of that table, then runs each member on the per-scenario
table engine (:mod:`repro.sim.tablepath` isothermal,
:mod:`repro.sim.thermalpath` thermal) over the shared application and
table.

Each member's result keeps its value columns as NumPy arrays and the
group-invariant columns (frame index, deadlines, cycles and, isothermal,
the temperature) by reference, and builds Python lists only on first read
(see :func:`_compact_result`).  A campaign holding many group results thus
pays for one copy of the shared columns, not one per member.

Results are bit-identical to running each member alone on the table
engine: trajectories, miss sets, exploration counts, Q-tables, cluster
aggregate state and final thermal state (``tests/test_batchpath.py``).

Eligibility: NumPy importable.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

try:  # NumPy is optional: without it every run takes the scalar engine.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-less installs
    _np = None  # type: ignore[assignment]

from repro.errors import SimulationError
from repro.platform.cluster import ThermalWorkloadTable, WorkloadTable
from repro.rtm.governor import PlatformInfo
from repro.sim import tablepath, thermalpath
from repro.sim.epoch import FrameColumns
from repro.sim.results import SimulationResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.cluster import Cluster
    from repro.rtm.governor import Governor
    from repro.sim.engine import SimulationConfig
    from repro.workload.application import Application

#: One group member: the cluster to mutate and the governor to step.
BatchMember = Tuple["Cluster", "Governor"]


def precompute_tables(
    cluster: "Cluster", application: "Application", config: "SimulationConfig"
):
    """Precompute the shared physics table for one group.

    Thermally-enabled clusters get the decomposed
    :class:`~repro.platform.cluster.ThermalWorkloadTable`; isothermal
    clusters the fully-baked :class:`~repro.platform.cluster.WorkloadTable`
    — the same tables the per-scenario engines use, so the campaign
    executor's cache serves both.
    """
    if cluster.thermal_model.enabled:
        return thermalpath.precompute_tables(cluster, application, config)
    return tablepath.precompute_tables(cluster, application, config)


def run_batch(
    members: Sequence[BatchMember],
    application: "Application",
    config: "SimulationConfig",
    tables=None,
) -> List[SimulationResult]:
    """Reset, set up and simulate ``members``; the full per-scenario lifecycle.

    Convenience entry point mirroring :meth:`SimulationEngine.run` for every
    member: reset the cluster to the configured initial operating point, set
    the governor up against the platform and requirement, then hand the
    group to :func:`simulate_batch`.
    """
    for cluster, governor in members:
        cluster.reset(config.initial_operating_index)
        governor.setup(
            PlatformInfo(num_cores=cluster.num_cores, vf_table=cluster.vf_table),
            application.requirement,
        )
    return simulate_batch(members, application, config, tables=tables)


def simulate_batch(
    members: Sequence[BatchMember],
    application: "Application",
    config: "SimulationConfig",
    tables=None,
) -> List[SimulationResult]:
    """Run every member through ``application`` over one shared table.

    Clusters and governors are used as-is (the caller resets and sets them
    up first — see :func:`run_batch`); each cluster and governor is left in
    exactly the state a solo table-engine run would have left.  Results are
    returned in member order.

    All members must share the application trace, the thermal mode and the
    cluster physics described by ``tables`` (validated before any member
    runs); ``tables`` is rebuilt from the first member when missing or
    mismatched.
    """
    np = _np
    if np is None:
        raise SimulationError("the planner-group engine requires numpy")
    members = list(members)
    if not members:
        return []
    clusters = [cluster for cluster, _governor in members]
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

    engine = thermalpath if thermal else tablepath
    shared_index, deadlines, shared_temperature = _group_columns(tables, thermal)
    frequencies_mhz = np.asarray(tables.frequencies_mhz)
    return [
        _compact_result(
            np,
            engine.simulate_closed_loop(cluster, application, governor, config, tables),
            deadlines,
            tables.cycles_tuples,
            shared_index,
            shared_temperature,
            frequencies_mhz,
        )
        for cluster, governor in members
    ]


def _group_columns(tables, thermal: bool):
    """``(index, deadline_s, temperature_c)`` lists shared by every result.

    Built on first use and kept on the table, so every member run over it
    — one at a time, in one group or in several groups served by the
    worker's table cache — references one copy, as ``cycles_tuples``
    already is.  ``temperature_c`` is ``None`` for thermal tables, whose
    temperatures are per member.
    """
    columns = tables.group_columns
    if columns is None:
        num_frames = tables.num_frames
        columns = tables.group_columns = (
            list(range(num_frames)),
            tables.deadlines_s.tolist(),
            None if thermal else [tables.temperature_c] * num_frames,
        )
    return columns


def _compact_result(
    np,
    result: SimulationResult,
    deadlines: List[float],
    cycles_tuples,
    shared_index: List[int],
    shared_temperature: Optional[List[float]],
    frequencies_mhz,
) -> SimulationResult:
    """Re-home a per-scenario result's columns in the group's compact form.

    The per-scenario engines return eager Python-list columns; a group
    keeps each member's value columns as NumPy arrays, the group-invariant
    ones by reference, and builds lists only on first read.  ``tolist``
    round-trips every native float, int and bool unchanged, and the derived
    columns are recomputed with the engines' own operations, so the columns
    read back identical.
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
