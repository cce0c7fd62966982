"""The benchmark's three workloads: inputs from a seed, one pass, checks.

Every workload is built from the benchmark's workload seed alone and
drives ``repro`` through its public API.  A workload object is created in
the set-up phase of a pass (after ``import repro``), runs its timed pass
with :meth:`run`, and checks the pass's outputs outside the timed region.

* ``paper`` — the Table I, II, III and Fig. 3 drivers at paper scale,
  serial and isothermal, run and rendered as ``examples/reproduce_paper.py
  --backend serial`` does.
* ``grid`` — a closed-loop governor × application × thermal-mode sweep
  through :class:`~repro.campaign.CampaignExecutor` with the
  ``repro-campaign`` run defaults (serial, ``batch_size=16``).
* ``service`` — short scenarios served by an in-process coordinator with a
  journal, over loopback HTTP, to two worker threads; the result is then
  saved, lazily reloaded and summarised.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
import tempfile
import threading
from typing import Any, Dict, List

WORKLOADS = ("paper", "grid", "service")

#: Modules each workload imports beyond ``repro`` itself; their import
#: time is part of ``import.s``.
IMPORTS = {
    "paper": ("repro.experiments",),
    "grid": ("repro.campaign",),
    "service": ("repro.campaign.service", "repro.analysis.reporting"),
}

#: Workload sizes.  ``full`` is the benchmark; ``tiny`` is the smoke scale
#: of the benchmark's own tests.  The grid and service passes are kept to a
#: few seconds each so that a run holds enough passes for a steady median
#: on a machine whose speed drifts by tens of percent within a minute.
SCALES: Dict[str, Dict[str, int]] = {
    "full": {
        "paper_frames": 3000,
        "paper_seeds": 5,
        "grid_frames": 3000,
        "grid_seeds": 1,
        "grid_check_sample": 6,
        "service_frames": 150,
        "service_seeds": 2,
    },
    "tiny": {
        "paper_frames": 60,
        "paper_seeds": 1,
        "grid_frames": 60,
        "grid_seeds": 1,
        "grid_check_sample": 2,
        "service_frames": 30,
        "service_seeds": 1,
    },
}

#: Applications and governors the grid and service workloads sweep.
APPLICATIONS = ("mpeg4", "h264", "fft")
GOVERNORS = ("ondemand", "conservative", "proposed-single")

#: ``repro-campaign`` run default the grid pass uses.
GRID_BATCH_SIZE = 16
SERVICE_WORKERS = 2
#: Poll interval of the in-process worker sites, as in
#: :func:`repro.campaign.service.run_campaign_service`.
SERVICE_POLL_S = 0.02


def derived_seeds(workload: str, seed: int, count: int) -> List[int]:
    """``count`` simulation seeds drawn from the benchmark's workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


def paper_driver_seeds(seed: int) -> Dict[str, int]:
    """Seeds handed to the four paper drivers."""
    drivers = ("table1", "table2", "table3", "figure3")
    return dict(zip(drivers, derived_seeds("paper", seed, len(drivers))))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _campaign_frames(campaign) -> int:
    return sum(s.application.kwargs["num_frames"] for s in campaign.scenarios)


def fingerprint(result) -> str:
    """sha256 over every outcome's status, counters and per-frame columns.

    Covers what ``to_json`` covers at a fraction of its cost: serialising
    a grid's 3000-frame results to JSON takes longer than simulating them.
    """
    digest = hashlib.sha256()
    for outcome in result:
        simulation = outcome.result
        head = [outcome.label, outcome.status, outcome.probe, outcome.error]
        if simulation is not None:
            head += [
                simulation.engine_used,
                simulation.exploration_count,
                simulation.converged_epoch,
            ]
        digest.update(json.dumps(head, sort_keys=True).encode("utf-8"))
        if simulation is not None:
            for name, column in sorted(simulation.to_arrays().items()):
                digest.update(name.encode("utf-8"))
                digest.update(column.tobytes())
    return digest.hexdigest()


def _canonical(outcome) -> str:
    """An outcome's bytes with the engine pin and the engine stamp removed."""
    data = outcome.to_dict()
    data["scenario"].pop("engine", None)
    if "result" in data:
        data["result"].pop("engine_used", None)
    return json.dumps(data)


def grid_campaign(seed: int, scale: str = "full"):
    """The grid sweep: governors × applications × {isothermal, thermal} × seeds."""
    from repro.campaign import CampaignSpec, FactorySpec

    size = SCALES[scale]
    applications = {
        name: FactorySpec.of(name, num_frames=size["grid_frames"]) for name in APPLICATIONS
    }
    governors = {name: FactorySpec.of(name) for name in GOVERNORS}
    seeds = tuple(derived_seeds("grid", seed, size["grid_seeds"]))
    scenarios = []
    for mode, cluster in (
        ("isothermal", FactorySpec.of("a15")),
        ("thermal", FactorySpec.of("a15", enable_thermal=True)),
    ):
        half = CampaignSpec.from_grid(
            mode, applications=applications, governors=governors,
            cluster=cluster, seeds=seeds,
        )
        scenarios += [
            dataclasses.replace(s, label=f"{mode}/{s.label}") for s in half.scenarios
        ]
    return CampaignSpec(name="grid", scenarios=tuple(scenarios))


def service_campaign(seed: int, scale: str = "full"):
    """The service sweep: short isothermal governor × application × seed runs."""
    from repro.campaign import CampaignSpec, FactorySpec

    size = SCALES[scale]
    return CampaignSpec.from_grid(
        "service",
        applications={
            name: FactorySpec.of(name, num_frames=size["service_frames"])
            for name in APPLICATIONS
        },
        governors={name: FactorySpec.of(name) for name in GOVERNORS},
        seeds=tuple(derived_seeds("service", seed, size["service_seeds"])),
    )


@dataclasses.dataclass
class PassOutput:
    """What one timed pass produced, for the checks and the report."""

    scenarios: int
    frames: int
    failed: int
    digest: str
    details: Dict[str, Any] = dataclasses.field(default_factory=dict)


class PaperWorkload:
    """Tables I–III and Fig. 3 at paper scale, as ``reproduce_paper.py`` runs them."""

    def __init__(self, seed: int, scale: str = "full", workdir: str = "") -> None:
        from repro import experiments

        size = SCALES[scale]
        self.experiments = experiments
        self.seeds = paper_driver_seeds(seed)
        self.settings = experiments.ExperimentSettings(
            num_frames=size["paper_frames"],
            num_seeds=size["paper_seeds"],
            backend="serial",
            max_workers=None,
        )

    def campaigns(self) -> Dict[str, Any]:
        exp, settings, seeds = self.experiments, self.settings, self.seeds
        return {
            "table1": exp.table1.build_table1_campaign(settings, seeds["table1"]),
            "table2": exp.table2.build_table2_campaign(settings, seeds["table2"]),
            "table3": exp.table3.build_table3_campaign(settings, seeds["table3"]),
            "figure3": exp.figure3.build_figure3_campaign(settings, seeds["figure3"]),
        }

    def run(self) -> Dict[str, Any]:
        """Run and render every driver; a driver that raises yields ``None``."""
        from repro.errors import ReproError

        exp, settings, seeds = self.experiments, self.settings, self.seeds
        drivers = {
            "table1": (lambda: exp.run_table1(settings, seeds["table1"]), exp.format_table1),
            "table2": (lambda: exp.run_table2(settings, seeds["table2"]), exp.format_table2),
            "table3": (lambda: exp.run_table3(settings, seeds["table3"]), exp.format_table3),
            "figure3": (lambda: exp.run_figure3(settings, seeds["figure3"]), exp.format_figure3),
        }
        rendered: Dict[str, Any] = {}
        for name, (run, render) in drivers.items():
            try:
                result = run()
            except ReproError:
                rendered[name] = None
                continue
            rendered[name] = (result, render(result))
        return rendered

    def summarize(self, rendered: Dict[str, Any]) -> PassOutput:
        campaigns = self.campaigns()
        failed = sum(
            len(campaigns[name]) for name, value in rendered.items() if value is None
        )
        text = "\n\n".join(
            value[1] if value is not None else f"<{name} failed>"
            for name, value in rendered.items()
        )
        details: Dict[str, Any] = {"tables_sha256": sha256(text)}
        if failed == 0:
            details["paper_cells"] = paper_cells(rendered)
        return PassOutput(
            scenarios=sum(len(c) for c in campaigns.values()),
            frames=sum(_campaign_frames(c) for c in campaigns.values()),
            failed=failed,
            digest=details["tables_sha256"],
            details=details,
        )

    def check(self, rendered: Dict[str, Any]) -> List[str]:
        return []  # the drivers raise on any failed scenario

    def close(self) -> None:
        pass


def paper_cells(rendered: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Ours vs the paper for the 14 numeric cells of Tables I–III."""
    from repro.experiments.common import PAPER_TABLE1, PAPER_TABLE2, PAPER_TABLE3

    cells: Dict[str, Dict[str, float]] = {}

    def cell(name: str, ours: float, paper: float) -> None:
        cells[name] = {"ours": ours, "paper": paper, "gap": abs(ours - paper) / paper}

    table1 = rendered["table1"][0]
    for row in table1.rows:
        if row.methodology not in PAPER_TABLE1:
            continue
        energy, performance = PAPER_TABLE1[row.methodology]
        cell(f"table1/{row.methodology}/energy", row.normalized_energy, energy)
        cell(f"table1/{row.methodology}/performance", row.normalized_performance, performance)
    for row in rendered["table2"][0]:
        upd, ours = PAPER_TABLE2[row.application]
        cell(f"table2/{row.application}/upd", row.explorations_upd, upd)
        cell(f"table2/{row.application}/proposed", row.explorations_ours, ours)
    table3 = rendered["table3"][0]
    cell(
        "table3/Multi-core DVFS control [20]",
        table3.baseline_learning_epochs,
        PAPER_TABLE3["Multi-core DVFS control [20]"],
    )
    cell("table3/Our approach", table3.proposed_learning_epochs, PAPER_TABLE3["Our approach"])
    return cells


def paper_gap(cells: Dict[str, Dict[str, float]]) -> float:
    """Mean relative gap |ours - paper| / paper over the cells."""
    return sum(c["gap"] for c in cells.values()) / len(cells)


class GridWorkload:
    """Closed-loop sweep through the campaign executor's batch planner."""

    def __init__(self, seed: int, scale: str = "full", workdir: str = "") -> None:
        from repro.campaign import CampaignExecutor, RetryPolicy

        self.seed = seed
        self.scale = scale
        self.campaign = grid_campaign(seed, scale)
        self.executor = CampaignExecutor(
            backend="serial", retry=RetryPolicy(max_attempts=1), batch_size=GRID_BATCH_SIZE
        )

    def run(self):
        return self.executor.run(self.campaign)

    def summarize(self, result) -> PassOutput:
        engines: Dict[str, int] = {}
        for outcome in result:
            if outcome.result is not None:
                name = outcome.result.engine_used
                engines[name] = engines.get(name, 0) + 1
        return PassOutput(
            scenarios=len(self.campaign),
            frames=_campaign_frames(self.campaign),
            failed=sum(1 for outcome in result if not outcome.ok),
            digest=fingerprint(result),
            details={"engines": engines},
        )

    def check(self, result) -> List[str]:
        """Re-run a seeded sample one at a time on the scalar reference engine."""
        from repro.campaign import executor

        size = SCALES[self.scale]["grid_check_sample"]
        rng = random.Random(f"grid-check:{self.seed}")
        outcomes = list(result)
        errors = []
        for index in sorted(rng.sample(range(len(outcomes)), size)):
            batched = outcomes[index]
            scalar = executor.run_scenario(
                dataclasses.replace(batched.scenario, engine="scalar")
            )
            if _canonical(scalar) != _canonical(batched):
                errors.append(f"{batched.label}: batched outcome differs from scalar")
        return errors

    def close(self) -> None:
        pass


class ServiceWorkload:
    """Coordinator + journal + loopback HTTP + two worker threads, then persistence."""

    def __init__(self, seed: int, scale: str = "full", workdir: str = "") -> None:
        from repro.campaign.service import Coordinator, CoordinatorServer, HTTPClient, WorkerSite

        self.campaign = service_campaign(seed, scale)
        self.directory = tempfile.mkdtemp(prefix="service-", dir=workdir or None)
        self.journal_path = os.path.join(self.directory, "journal.json")
        self.output_path = os.path.join(self.directory, "result.json")
        self.coordinator = Coordinator(self.campaign, journal_path=self.journal_path)
        self.server = CoordinatorServer(self.coordinator)
        self.server.start()
        self.sites = [
            WorkerSite(
                HTTPClient(self.server.address),
                worker_id=f"site-{index}",
                poll_interval_s=SERVICE_POLL_S,
            )
            for index in range(SERVICE_WORKERS)
        ]
        self.journal_bytes = 0

    def run(self):
        from repro.analysis import reporting
        from repro.campaign import CampaignResult

        threads = [
            threading.Thread(target=site.run, name=site.worker_id, daemon=True)
            for site in self.sites
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result = self.coordinator.result()
        self.journal_bytes = os.path.getsize(self.journal_path)
        result.save(self.output_path)
        reloaded = CampaignResult.load(self.output_path, lazy=True)
        summary = reporting.format_campaign_summary(reloaded)
        return result, reloaded, summary

    def summarize(self, produced) -> PassOutput:
        result, reloaded, summary = produced
        failed = sum(1 for outcome in result if not outcome.ok)
        # The lazily reloaded output must equal the in-memory result.
        failed += sum(
            1
            for ours, theirs in zip(result, reloaded)
            if ours.to_dict() != theirs.to_dict()
        ) + abs(len(result) - len(reloaded))
        return PassOutput(
            scenarios=len(self.campaign),
            frames=_campaign_frames(self.campaign),
            failed=failed,
            digest=fingerprint(result),
            details={
                "journal_bytes": self.journal_bytes,
                "output_bytes": os.path.getsize(self.output_path),
                "summary_sha256": sha256(summary),
            },
        )

    def check(self, produced) -> List[str]:
        """The served result must equal a serial run of the same spec."""
        from repro.campaign import executor

        result = produced[0]
        serial = executor.run_campaign(self.campaign)
        if serial.to_json() == result.to_json():
            return []
        served = {o.scenario_id: o for o in result}
        errors = [
            f"{o.label}: served outcome differs from serial"
            for o in serial
            if o.scenario_id not in served or served[o.scenario_id].to_dict() != o.to_dict()
        ]
        return errors or ["served result differs from serial in order"]

    def close(self) -> None:
        self.server.stop()
        self.coordinator.close_journal()
        shutil.rmtree(self.directory, ignore_errors=True)


WORKLOAD_CLASSES = {
    "paper": PaperWorkload,
    "grid": GridWorkload,
    "service": ServiceWorkload,
}
