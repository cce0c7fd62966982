"""Shared settings and helpers for the experiment drivers.

Every driver describes its sweep as a :class:`~repro.campaign.spec.CampaignSpec`
and executes it through :meth:`ExperimentSettings.run_campaign`, so switching
an entire reproduction from serial to multi-process execution is a single
settings change (or the ``REPRO_CAMPAIGN_BACKEND`` environment variable), and
pointing ``checkpoint_dir`` (or ``REPRO_CAMPAIGN_CHECKPOINT_DIR``) at a
directory makes every driver crash-resumable via incremental checkpoints.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.campaign.executor import CampaignExecutor, RetryPolicy
from repro.campaign.results import CampaignResult
from repro.campaign.spec import CampaignSpec, FactorySpec
from repro.platform.cluster import Cluster
from repro.platform.odroid_xu3 import build_a15_cluster
from repro.sim.runner import ExperimentRunner


def default_backend() -> str:
    """Campaign backend selected by ``REPRO_CAMPAIGN_BACKEND`` (default serial)."""
    return os.environ.get("REPRO_CAMPAIGN_BACKEND", "serial")


def default_checkpoint_dir() -> Optional[str]:
    """Checkpoint directory from ``REPRO_CAMPAIGN_CHECKPOINT_DIR`` (default off)."""
    return os.environ.get("REPRO_CAMPAIGN_CHECKPOINT_DIR") or None


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by all experiment drivers.

    Attributes
    ----------
    num_frames:
        Length of the generated application(s).  The paper's Table I
        sequence is ~3000 frames; the default is smaller so the drivers stay
        fast in test/benchmark runs, and the benchmark harness raises it.
    num_seeds:
        Number of independent runs to average where the paper reports an
        average (Table II, Table III).
    num_cores:
        Number of A15 cores simulated (the paper uses all four).
    backend:
        Campaign execution backend (``"serial"`` or ``"process"``); the
        default follows ``REPRO_CAMPAIGN_BACKEND``.  Both backends produce
        identical results — the process pool only changes wall-clock time.
    max_workers:
        Worker count for the process backend (``None`` = CPU count).
    checkpoint_dir:
        When set (or via ``REPRO_CAMPAIGN_CHECKPOINT_DIR``), every driver
        checkpoints its campaign to ``<dir>/<campaign>.checkpoint.json``
        as scenarios complete and resumes from an existing checkpoint, so
        a crashed/killed reproduction run picks up where it left off.
    max_attempts:
        Per-scenario execution attempts (> 1 retries crashing scenarios).
    retry_backoff_s:
        Base seconds between retry attempts (capped exponential backoff
        with deterministic jitter; 0 retries immediately).
    timeout_s:
        Per-scenario wall-clock budget; a scenario still running after
        this many seconds is recorded as ``failed`` with a timeout error
        instead of hanging the whole sweep.  ``None`` disables the guard.
    """

    num_frames: int = 600
    num_seeds: int = 3
    num_cores: int = 4
    backend: str = field(default_factory=default_backend)
    max_workers: Optional[int] = None
    checkpoint_dir: Optional[str] = field(default_factory=default_checkpoint_dir)
    max_attempts: int = 1
    retry_backoff_s: float = 0.0
    timeout_s: Optional[float] = None

    def make_executor(self) -> CampaignExecutor:
        """Build the campaign executor every driver runs its sweep on."""
        return CampaignExecutor(
            backend=self.backend,
            max_workers=self.max_workers,
            retry=RetryPolicy(
                max_attempts=self.max_attempts,
                backoff_s=self.retry_backoff_s,
                timeout_s=self.timeout_s,
            ),
        )

    def checkpoint_path(self, campaign: CampaignSpec) -> Optional[str]:
        """Per-campaign checkpoint file under :attr:`checkpoint_dir` (or ``None``)."""
        if not self.checkpoint_dir:
            return None
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        return os.path.join(self.checkpoint_dir, f"{campaign.name}.checkpoint.json")

    def run_campaign(self, campaign: CampaignSpec) -> CampaignResult:
        """Execute ``campaign`` with this settings' executor + checkpointing.

        Resumes from the campaign's checkpoint file when one exists, and
        raises :class:`~repro.errors.SimulationError` if any scenario ends
        up ``failed`` — the experiment drivers need every cell of their
        table, so a partial sweep is an error (the checkpoint retains the
        completed work for the next attempt).
        """
        checkpoint = self.checkpoint_path(campaign)
        # load_checkpoint quarantines a checkpoint truncated by a crash
        # instead of dying on it — the driver restarts from scratch.
        resume = (
            CampaignResult.load_checkpoint(checkpoint) if checkpoint else None
        )
        store = self.make_executor().run(
            campaign, resume=resume, checkpoint_path=checkpoint
        )
        store.raise_on_failures()
        return store

    def cluster_spec(self) -> FactorySpec:
        """Declarative spec of the A15 cluster used by every experiment."""
        return FactorySpec.of("a15", num_cores=self.num_cores)

    def make_runner(self) -> ExperimentRunner:
        """Build a fresh A15-cluster experiment runner (single-run API)."""
        return ExperimentRunner(cluster=self.make_cluster())

    def make_cluster(self) -> Cluster:
        """Build the A15 cluster model used by every experiment."""
        return build_a15_cluster(num_cores=self.num_cores)


#: Paper-reported values, kept next to the drivers so EXPERIMENTS.md and the
#: benchmark output can show paper-vs-measured side by side.
PAPER_TABLE1 = {
    "Linux Ondemand [5]": (1.29, 0.77),
    "Multi-core DVFS control [20]": (1.20, 0.89),
    "Proposed": (1.11, 0.96),
}

PAPER_TABLE2 = {
    "MPEG4 (30 fps)": (144, 83),
    "H.264 (15 fps)": (149, 90),
    "FFT (32 fps)": (119, 74),
}

PAPER_TABLE3 = {
    "Multi-core DVFS control [20]": 205,
    "Our approach": 105,
}

PAPER_FIGURE3 = {
    "gamma": 0.6,
    "early_misprediction_percent": 8.0,
    "late_misprediction_percent": 3.0,
}
