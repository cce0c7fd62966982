"""Measure where the batched engine's vectorised family runners pay off.

:mod:`repro.sim.batchpath` can run a governor family either vectorised
(one NumPy frame loop steps every member) or member by member on the
per-scenario table engine (``tablepath`` isothermal, ``thermalpath``
thermal).  Both give identical results; which one is faster depends on the
family, the thermal mode and the family's width S.
:data:`repro.sim.batchpath.DEFAULT_SCALAR_CUTOFFS` holds the crossover
widths, and this script prints the evidence behind them: for every family
× thermal mode × width, the per-member cost in µs/frame of both routes.

Both routes go through :func:`repro.sim.batchpath.run_batch` over one
shared physics table.  The vectorised side passes no cutoffs; the
per-scenario side passes a cutoff just above S, so it also pays the
routing's own cost (re-homing each member's columns).  Every member's
columns and governor state are asserted identical before anything is
timed.  Timings are the best of ``--repeats`` runs after one untimed
warm-up.

Usage::

    PYTHONPATH=src python benchmarks/bench_batch_crossover.py            # h264, 3000 frames
    PYTHONPATH=src python benchmarks/bench_batch_crossover.py --smoke    # 300 frames, S in 1/4/16

The last column names the route the current cutoff table picks at that
width; ``crossover`` is the smallest measured width from which the
vectorised runner stays ahead.
"""

from __future__ import annotations

import argparse
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.governors.conservative import ConservativeGovernor, ConservativeParameters
from repro.governors.ondemand import OndemandGovernor, OndemandParameters
from repro.governors.userspace import UserspaceGovernor
from repro.platform.odroid_xu3 import A15_VF_TABLE, build_a15_cluster
from repro.rtm.rl_governor import RLGovernor, RLGovernorConfig
from repro.sim import batchpath
from repro.sim.engine import SimulationConfig
from repro.workload.video import h264_application

#: Family kind → factory of the member at position ``k`` of a width-S family
#: (parameter sweeps, so members take different trajectories).
FAMILIES: Dict[str, Callable[[int], object]] = {
    "static": lambda k: UserspaceGovernor(index=k % len(A15_VF_TABLE)),
    "ondemand": lambda k: OndemandGovernor(
        OndemandParameters(up_threshold=0.60 + 0.02 * (k % 20))
    ),
    "conservative": lambda k: ConservativeGovernor(
        ConservativeParameters(up_threshold=0.60 + 0.02 * (k % 20))
    ),
    "rl": lambda k: RLGovernor(RLGovernorConfig(seed=k)),
}

MODES = ("isothermal", "thermal")

COLUMNS = (
    "operating_index",
    "busy_time_s",
    "overhead_time_s",
    "interval_s",
    "energy_j",
    "measured_power_w",
    "temperature_c",
    "explored",
)


def _best_of(callable_, repeats: int) -> float:
    callable_()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def measure(
    family: str, mode: str, width: int, application, tables, repeats: int
) -> Dict[str, object]:
    """Time one (family, thermal mode, width) cell both ways."""
    thermal = mode == "thermal"
    config = SimulationConfig()
    factory = FAMILIES[family]

    def run(cutoffs):
        members = [
            (build_a15_cluster(enable_thermal=thermal), factory(k)) for k in range(width)
        ]
        results = batchpath.run_batch(
            members, application, config, tables=tables, scalar_cutoffs=cutoffs
        )
        return results, [governor for _cluster, governor in members]

    per_scenario_cutoffs = {mode: {family: width + 1}}
    vectorised, vectorised_governors = run(None)
    routed, routed_governors = run(per_scenario_cutoffs)
    for member, (expected, actual) in enumerate(zip(vectorised, routed)):
        for name in COLUMNS:
            if getattr(expected.columns, name) != getattr(actual.columns, name):
                raise AssertionError(
                    f"{family}/{mode}/S={width}: member {member} column {name!r} differs"
                )
        if (
            vectorised_governors[member].decision_state()
            != routed_governors[member].decision_state()
        ):
            raise AssertionError(
                f"{family}/{mode}/S={width}: member {member} governor state differs"
            )

    member_frames = width * application.num_frames
    vectorised_s = _best_of(lambda: run(None), repeats)
    per_scenario_s = _best_of(lambda: run(per_scenario_cutoffs), repeats)
    cutoff = batchpath.DEFAULT_SCALAR_CUTOFFS.get(mode, {}).get(family, 0)
    return {
        "family": family,
        "mode": mode,
        "width": width,
        "vectorised_us_per_frame": 1e6 * vectorised_s / member_frames,
        "per_scenario_us_per_frame": 1e6 * per_scenario_s / member_frames,
        "route": "per-scenario" if width < cutoff else "vectorised",
    }


def crossover(rows: Sequence[Dict[str, object]]) -> Optional[int]:
    """Smallest measured width from which vectorising wins at every larger one."""
    best = None
    for row in sorted(rows, key=lambda row: row["width"], reverse=True):
        if row["vectorised_us_per_frame"] >= row["per_scenario_us_per_frame"]:
            break
        best = row["width"]
    return best


def run_table(
    num_frames: int, widths: Sequence[int], repeats: int
) -> List[Dict[str, object]]:
    application = h264_application(num_frames=num_frames, seed=1)
    rows: List[Dict[str, object]] = []
    for mode in MODES:
        cluster = build_a15_cluster(enable_thermal=mode == "thermal")
        tables = batchpath.precompute_tables(cluster, application, SimulationConfig())
        for family in FAMILIES:
            for width in widths:
                row = measure(family, mode, width, application, tables, repeats)
                rows.append(row)
                print(
                    f"{family:13s} {mode:10s} S={width:<3d} "
                    f"vectorised {row['vectorised_us_per_frame']:6.1f}  "
                    f"per-scenario {row['per_scenario_us_per_frame']:6.1f} µs/frame  "
                    f"[{row['route']}]",
                    flush=True,
                )
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--frames", type=int, default=3000, help="h264 frames")
    parser.add_argument(
        "--widths",
        type=int,
        nargs="+",
        default=[1, 2, 4, 8, 16],
        help="family widths S to measure",
    )
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best-of)")
    parser.add_argument(
        "--smoke", action="store_true", help="300 frames, S in 1/4/16, best of 1"
    )
    args = parser.parse_args()
    if args.smoke:
        args.frames, args.widths, args.repeats = 300, [1, 4, 16], 1

    rows = run_table(args.frames, args.widths, args.repeats)
    print()
    print("crossover (smallest width from which vectorising stays ahead):")
    for mode in MODES:
        for family in FAMILIES:
            cells = [row for row in rows if row["mode"] == mode and row["family"] == family]
            found = crossover(cells)
            cutoff = batchpath.DEFAULT_SCALAR_CUTOFFS.get(mode, {}).get(family, 0)
            measured = "none measured" if found is None else f"S={found}"
            print(f"  {family:13s} {mode:10s} {measured:14s} cutoff {cutoff}")


if __name__ == "__main__":
    main()
