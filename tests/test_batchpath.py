"""Bit-identity and planner tests for the planner-group engine.

The contract under test: running S scenarios through
:mod:`repro.sim.batchpath` as one group over a shared application and
physics table reproduces S individual runs of the per-scenario table
engines (:mod:`repro.sim.tablepath` isothermal, :mod:`repro.sim.thermalpath`
thermal) *exactly* — operating-point trajectories, every per-frame float,
deadline-miss sets, exploration counts, reward histories, final Q-tables
and ε, cluster aggregate state (energy meter, PMU, DVFS transitions, clock,
thermal state) — for every governor, with and without the thermal model,
across RL seeds.  On top of that engine, the campaign batch planner must
group only compatible scenarios, stamp ``engine_used="batchpath"``
independent of group size and of batch-mates' failures, run each member
under the retry policy like a singleton, and keep sharded + merged campaign
results identical to unsharded runs.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.campaign.registry import register_governor
from repro.campaign.spec import FactorySpec
from repro.errors import SimulationError
from repro.governors.conservative import ConservativeGovernor
from repro.governors.multicore_dvfs import MultiCoreDVFSGovernor
from repro.governors.ondemand import OndemandGovernor
from repro.governors.oracle import OracleGovernor
from repro.governors.performance import PerformanceGovernor
from repro.governors.powersave import PowersaveGovernor
from repro.governors.shen_rl import ShenRLGovernor
from repro.platform.odroid_xu3 import build_a15_cluster
from repro.rtm.multicore import MultiCoreRLGovernor
from repro.rtm.qlearning import QLearningParameters
from repro.rtm.rl_governor import RLGovernor, RLGovernorConfig
from repro.sim import batchpath
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.workload.fft import fft_application
from repro.workload.video import mpeg4_application

numpy = pytest.importorskip("numpy")

RL_SEEDS = (0, 1, 2)

#: Static, threshold, RL and many-core governors.
GOVERNOR_FACTORIES = {
    "performance": PerformanceGovernor,
    "powersave": PowersaveGovernor,
    "ondemand": OndemandGovernor,
    "conservative": ConservativeGovernor,
    "oracle": OracleGovernor,
    "rl-seed0": lambda: RLGovernor(RLGovernorConfig(seed=0)),
    "rl-seed1": lambda: RLGovernor(RLGovernorConfig(seed=1)),
    "rl-seed2": lambda: RLGovernor(RLGovernorConfig(seed=2)),
    "rl-multicore": MultiCoreRLGovernor,
    "shen-rl-upd": ShenRLGovernor,
    "multicore-dvfs": MultiCoreDVFSGovernor,
}

COLUMN_FIELDS = (
    "operating_index",
    "frequency_mhz",
    "busy_time_s",
    "overhead_time_s",
    "frame_time_s",
    "interval_s",
    "deadline_s",
    "energy_j",
    "average_power_w",
    "measured_power_w",
    "temperature_c",
    "explored",
)


def _miss_set(result):
    """Deadline-missed frame indices (materialises the record list)."""
    return [record.index for record in result.records if not record.met_deadline]


def _reference_run(factory, application, config, thermal):
    """One per-scenario table-engine run (the bit-identity baseline)."""
    cluster = build_a15_cluster(enable_thermal=thermal)
    engine = SimulationEngine(
        cluster, config, engine="thermalpath" if thermal else "tablepath"
    )
    governor = factory()
    result = engine.run(application, governor)
    return result, governor, cluster


def _assert_columns_identical(reference, batched, label):
    assert batched.num_frames == reference.num_frames
    for field in COLUMN_FIELDS:
        expected = list(getattr(reference.columns, field))
        actual = list(getattr(batched.columns, field))
        # Exact equality: a group member must produce the same IEEE
        # operations as a solo per-scenario run, not merely close floats.
        assert actual == expected, f"{label}: column {field!r} diverged"


def _assert_cluster_state_identical(reference_cluster, cluster, label):
    assert (
        cluster.energy_meter.energy_j == reference_cluster.energy_meter.energy_j
    ), label
    assert (
        cluster.energy_meter.elapsed_s == reference_cluster.energy_meter.elapsed_s
    ), label
    assert cluster.time_s == reference_cluster.time_s, label
    assert cluster.current_index == reference_cluster.current_index, label
    assert (
        cluster.dvfs.transition_count == reference_cluster.dvfs.transition_count
    ), label
    assert cluster.dvfs.transitions == reference_cluster.dvfs.transitions, label
    for core, reference_core in zip(cluster.cores, reference_cluster.cores):
        assert core.pmu.busy_cycles == reference_core.pmu.busy_cycles, label
        assert core.pmu.idle_cycles == reference_core.pmu.idle_cycles, label
        assert core.pmu.elapsed_time_s == reference_core.pmu.elapsed_time_s, label
    if cluster.thermal_model.enabled:
        assert (
            cluster.thermal_model.temperature_c
            == reference_cluster.thermal_model.temperature_c
        ), label
        assert (
            cluster.thermal_model.throttle_events
            == reference_cluster.thermal_model.throttle_events
        ), label


def _assert_governor_state_identical(reference_governor, governor, label):
    assert governor.decision_state() == reference_governor.decision_state(), label
    if isinstance(reference_governor, RLGovernor):
        reference_agent = reference_governor.agent
        agent = governor.agent
        assert agent.qtable._values == reference_agent.qtable._values, label
        assert (
            agent.qtable._visit_counts == reference_agent.qtable._visit_counts
        ), label
        assert agent.epsilon == reference_agent.epsilon, label
        assert agent.exploration_draws == reference_agent.exploration_draws, label
        assert (
            agent.exploration_phase_length
            == reference_agent.exploration_phase_length
        ), label
        assert governor.reward_history == reference_governor.reward_history, label
        assert governor.converged_epoch == reference_governor.converged_epoch, label


class TestBitIdentity:
    """Group runs reproduce the per-scenario table engines exactly."""

    @pytest.mark.parametrize("thermal", [False, True], ids=["isothermal", "thermal"])
    def test_mixed_family_batch_matches_per_scenario_engines(self, thermal):
        application = mpeg4_application(num_frames=300, seed=5)
        config = SimulationConfig()
        references = {
            label: _reference_run(factory, application, config, thermal)
            for label, factory in GOVERNOR_FACTORIES.items()
        }
        members = [
            (build_a15_cluster(enable_thermal=thermal), factory())
            for factory in GOVERNOR_FACTORIES.values()
        ]
        results = batchpath.run_batch(members, application, config)
        for label, result, (cluster, governor) in zip(
            GOVERNOR_FACTORIES, results, members
        ):
            reference, reference_governor, reference_cluster = references[label]
            _assert_columns_identical(reference, result, label)
            assert result.exploration_count == reference.exploration_count, label
            assert result.converged_epoch == reference.converged_epoch, label
            assert _miss_set(result) == _miss_set(reference), label
            _assert_governor_state_identical(reference_governor, governor, label)
            _assert_cluster_state_identical(reference_cluster, cluster, label)

    @pytest.mark.parametrize("thermal", [False, True], ids=["isothermal", "thermal"])
    def test_rl_seed_sweep_in_one_batch(self, thermal):
        """Per-scenario RNG streams stay independent inside one batch."""
        application = fft_application(num_frames=150, seed=2)
        config = SimulationConfig()
        factories = [
            (seed, (lambda s=seed: RLGovernor(RLGovernorConfig(seed=s))))
            for seed in RL_SEEDS
        ]
        members = [
            (build_a15_cluster(enable_thermal=thermal), factory())
            for _, factory in factories
        ]
        results = batchpath.run_batch(members, application, config)
        trajectories = set()
        for (seed, factory), result, (cluster, governor) in zip(
            factories, results, members
        ):
            label = f"rl-seed{seed}"
            reference, reference_governor, reference_cluster = _reference_run(
                factory, application, config, thermal
            )
            _assert_columns_identical(reference, result, label)
            _assert_governor_state_identical(reference_governor, governor, label)
            _assert_cluster_state_identical(reference_cluster, cluster, label)
            trajectories.add(tuple(result.columns.operating_index))
        # The seeds must actually explore differently, or the independence
        # claim is vacuous.
        assert len(trajectories) > 1

    @pytest.mark.parametrize("thermal", [False, True], ids=["isothermal", "thermal"])
    def test_routed_member_columns_stay_deferred_until_read(self, thermal):
        """Members keep the group's compact, lazily listed columns.

        Until a column is read the result holds no Python lists; once read,
        pickled and serialised it is indistinguishable from an eager
        per-scenario engine result.
        """
        application = fft_application(num_frames=90, seed=4)
        config = SimulationConfig()
        factories = {
            "ondemand": OndemandGovernor,
            "conservative": ConservativeGovernor,
            "rl-seed1": lambda: RLGovernor(RLGovernorConfig(seed=1)),
            "oracle": OracleGovernor,
        }
        members = [
            (build_a15_cluster(enable_thermal=thermal), factory())
            for factory in factories.values()
        ]
        results = batchpath.run_batch(members, application, config)
        for result in results:
            assert result.columns._loader is not None
        for (label, factory), result in zip(factories.items(), results):
            reference, _governor, _cluster = _reference_run(
                factory, application, config, thermal
            )
            assert result.columns.operating_index == reference.columns.operating_index
            assert result.columns._loader is None
            _assert_columns_identical(reference, result, label)
            clone = pickle.loads(pickle.dumps(result))
            _assert_columns_identical(reference, clone, label)
            expected = reference.to_dict()
            del expected["engine_used"]
            assert clone.to_dict() == expected, label
            assert result.to_dict() == expected, label

    def test_heterogeneous_rl_hyperparameters_in_one_subgroup(self):
        """Members differing only in learning rate / ε group together."""
        application = mpeg4_application(num_frames=200, seed=7)
        config = SimulationConfig()
        factories = [
            lambda: RLGovernor(
                RLGovernorConfig(seed=0, learning=QLearningParameters(learning_rate=0.1))
            ),
            lambda: RLGovernor(
                RLGovernorConfig(seed=0, learning=QLearningParameters(learning_rate=0.9))
            ),
            lambda: RLGovernor(
                RLGovernorConfig(seed=1, learning=QLearningParameters(initial_epsilon=0.3))
            ),
        ]
        members = [(build_a15_cluster(), factory()) for factory in factories]
        results = batchpath.run_batch(members, application, config)
        for index, (factory, result, (cluster, governor)) in enumerate(
            zip(factories, results, members)
        ):
            reference, reference_governor, reference_cluster = _reference_run(
                factory, application, config, thermal=False
            )
            _assert_columns_identical(reference, result, f"member{index}")
            _assert_governor_state_identical(
                reference_governor, governor, f"member{index}"
            )
            _assert_cluster_state_identical(
                reference_cluster, cluster, f"member{index}"
            )

    def test_sensor_noise_members_fall_back_to_scalar_sensor_path(self):
        """A noisy power sensor matches the per-scenario engine draw for draw."""
        application = mpeg4_application(num_frames=80, seed=3)
        config = SimulationConfig()

        def noisy_cluster():
            return build_a15_cluster(sensor_noise_w=0.05, seed=11)

        cluster = noisy_cluster()
        engine = SimulationEngine(cluster, config, engine="tablepath")
        reference = engine.run(application, OndemandGovernor())

        members = [(noisy_cluster(), OndemandGovernor())]
        (result,) = batchpath.run_batch(members, application, config)
        _assert_columns_identical(reference, result, "noisy")

    def test_batch_of_one_matches_batch_of_many(self):
        """Results are independent of batch composition."""
        application = mpeg4_application(num_frames=150, seed=5)
        config = SimulationConfig()
        factory = lambda: RLGovernor(RLGovernorConfig(seed=1))
        (solo,) = batchpath.run_batch(
            [(build_a15_cluster(), factory())], application, config
        )
        grouped = batchpath.run_batch(
            [
                (build_a15_cluster(), OndemandGovernor()),
                (build_a15_cluster(), factory()),
                (build_a15_cluster(), RLGovernor(RLGovernorConfig(seed=2))),
            ],
            application,
            config,
        )
        _assert_columns_identical(solo, grouped[1], "composition")

    def test_no_overhead_and_no_padding_configs(self):
        application = mpeg4_application(num_frames=100, seed=5)
        for config in (
            SimulationConfig(charge_governor_overhead=False),
            SimulationConfig(idle_until_deadline=False),
        ):
            for factory in (OndemandGovernor, lambda: RLGovernor(RLGovernorConfig())):
                reference, _, _ = _reference_run(
                    factory, application, config, thermal=False
                )
                (result,) = batchpath.run_batch(
                    [(build_a15_cluster(), factory())], application, config
                )
                _assert_columns_identical(reference, result, "config-variant")


class TestValidation:
    def test_mixed_thermal_modes_rejected(self):
        application = mpeg4_application(num_frames=10, seed=1)
        members = [
            (build_a15_cluster(), OndemandGovernor()),
            (build_a15_cluster(enable_thermal=True), OndemandGovernor()),
        ]
        with pytest.raises(SimulationError, match="thermal mode"):
            batchpath.run_batch(members, application, SimulationConfig())

    def test_mismatched_cluster_physics_rejected(self):
        application = mpeg4_application(num_frames=10, seed=1)
        members = [
            (build_a15_cluster(num_cores=4), OndemandGovernor()),
            (build_a15_cluster(num_cores=2), OndemandGovernor()),
        ]
        with pytest.raises(SimulationError, match="cluster physics"):
            batchpath.run_batch(members, application, SimulationConfig())

    def test_empty_batch_is_empty(self):
        application = mpeg4_application(num_frames=10, seed=1)
        assert batchpath.run_batch([], application, SimulationConfig()) == []

    def test_stale_tables_are_rebuilt(self):
        application = mpeg4_application(num_frames=20, seed=1)
        other = mpeg4_application(num_frames=10, seed=1)
        stale = batchpath.precompute_tables(
            build_a15_cluster(), other, SimulationConfig()
        )
        (result,) = batchpath.run_batch(
            [(build_a15_cluster(), OndemandGovernor())],
            application,
            SimulationConfig(),
            tables=stale,
        )
        assert result.num_frames == 20


class TestBackendRegistration:
    def test_batchpath_backend_runs_single_requests(self):
        engine = SimulationEngine(build_a15_cluster(), engine="batchpath")
        result = engine.run(mpeg4_application(num_frames=30, seed=1), OndemandGovernor())
        assert result.engine_used == "batchpath"
        reference = SimulationEngine(build_a15_cluster(), engine="tablepath").run(
            mpeg4_application(num_frames=30, seed=1), OndemandGovernor()
        )
        _assert_columns_identical(reference, result, "backend")

    def test_auto_never_selects_batchpath(self):
        """Negative priority: single-scenario auto runs keep the table engines."""
        engine = SimulationEngine(build_a15_cluster())
        result = engine.run(mpeg4_application(num_frames=10, seed=1), OndemandGovernor())
        assert result.engine_used == "tablepath"


#: Remaining decide() calls of the flaky governor below that raise.
_FLAKY_DECISIONS = {"left": 0}


@register_governor("test-group-flaky-ondemand")
class _FlakyOndemandGovernor(OndemandGovernor):
    """Ondemand whose decide() raises while ``_FLAKY_DECISIONS`` allows."""

    name = "flaky-ondemand"

    def decide(self, *args, **kwargs):
        if _FLAKY_DECISIONS["left"] > 0:
            _FLAKY_DECISIONS["left"] -= 1
            raise RuntimeError("transient decide() failure")
        return super().decide(*args, **kwargs)


def _grid_campaign(name="batch-grid", governor_specs=None, num_frames=60):
    from repro.campaign.spec import CampaignSpec

    governor_specs = governor_specs or {
        "performance": FactorySpec.of("performance"),
        "ondemand": FactorySpec.of("ondemand"),
        "conservative": FactorySpec.of("conservative"),
        "oracle": FactorySpec.of("oracle"),
        "rl-s0": FactorySpec.of("proposed-single", seed=0),
        "rl-s1": FactorySpec.of("proposed-single", seed=1),
        "rl-s2": FactorySpec.of("proposed-single", seed=2),
    }
    return CampaignSpec.from_grid(
        name=name,
        applications=[FactorySpec.of("mpeg4", num_frames=num_frames)],
        governors=governor_specs,
        seeds=[3],
    )


class TestCampaignPlanner:
    def test_planner_groups_only_compatible_closed_loop_scenarios(self):
        from repro.campaign.executor import plan_batches

        campaign = _grid_campaign()
        units = plan_batches(list(campaign), batch_size=16)
        batched = [unit for unit in units if unit[0]]
        singles = [unit for unit in units if not unit[0]]
        assert len(batched) == 1
        grouped_labels = {scenario.label for _, scenario in batched[0][1]}
        assert grouped_labels == {
            "ondemand",
            "conservative",
            "rl-s0",
            "rl-s1",
            "rl-s2",
        }
        # Static-schedule governors stay singletons for the fastpath.
        assert {unit[1][0][1].label for unit in singles} == {
            "performance",
            "oracle",
        }

    def test_batch_size_chunks_groups(self):
        from repro.campaign.executor import plan_batches

        campaign = _grid_campaign()
        units = plan_batches(list(campaign), batch_size=2)
        batched_sizes = sorted(len(unit[1]) for unit in units if unit[0])
        assert batched_sizes == [1, 2, 2]

    def test_batch_size_zero_disables_planning(self):
        from repro.campaign.executor import plan_batches

        campaign = _grid_campaign()
        units = plan_batches(list(campaign), batch_size=0)
        assert all(not batched for batched, _ in units)
        assert len(units) == len(campaign)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_batched_campaign_matches_unbatched(self, backend):
        from repro.campaign.executor import CampaignExecutor

        campaign = _grid_campaign()
        workers = 2 if backend == "process" else None
        plain = CampaignExecutor(backend=backend, max_workers=workers).run(campaign)
        batched = CampaignExecutor(
            backend=backend, max_workers=workers, batch_size=16
        ).run(campaign)
        assert plain == batched
        engines = {o.label: o.result.engine_used for o in batched}
        assert engines["ondemand"] == "batchpath"
        assert engines["rl-s0"] == "batchpath"
        assert engines["performance"] == "fastpath"
        assert engines["oracle"] == "fastpath"

    def test_sharded_plus_merged_identical_to_unsharded_with_planner(self):
        from repro.campaign.executor import CampaignExecutor
        from repro.campaign.results import CampaignResult
        from repro.campaign.spec import CampaignSpec

        campaign = _grid_campaign()
        unsharded = CampaignExecutor(batch_size=16).run(campaign)
        stores = []
        for index in range(3):
            shard = campaign.shard(index, 3)
            stores.append(CampaignExecutor(batch_size=16).run(shard))
        merged = CampaignResult.merge(stores).ordered_for(campaign)
        assert merged == unsharded
        # Byte-level identity of the serialised stores: the engine stamp must
        # not depend on how scenarios were grouped across shards.
        assert json.dumps(merged.to_dict(), sort_keys=True) == json.dumps(
            unsharded.to_dict(), sort_keys=True
        )

    def test_failing_member_degrades_to_per_scenario_outcomes(self):
        from repro.campaign.executor import run_scenario_batch
        from repro.campaign.spec import FactorySpec, ScenarioSpec

        good = ScenarioSpec(
            label="good",
            application=FactorySpec.of("mpeg4", num_frames=20),
            governor=FactorySpec.of("ondemand"),
            seed=3,
        )
        bad = ScenarioSpec(
            label="bad",
            application=FactorySpec.of("mpeg4", num_frames=20),
            governor=FactorySpec.of("userspace", index=99),
            seed=3,
        )
        outcomes = run_scenario_batch([good, bad])
        assert [outcome.label for outcome in outcomes] == ["good", "bad"]
        assert outcomes[0].ok
        assert outcomes[0].result.engine_used == "batchpath"
        assert not outcomes[1].ok
        assert outcomes[1].error

    def test_failed_member_alone_is_retried_and_every_member_keeps_the_stamp(self):
        """A batch-mate's failure neither reruns nor restamps healthy members."""
        from repro.campaign.executor import CampaignExecutor, RetryPolicy

        campaign = _grid_campaign(
            "flaky-group",
            governor_specs={
                "flaky": FactorySpec.of("test-group-flaky-ondemand"),
                "ondemand": FactorySpec.of("ondemand"),
            },
        )
        clean = CampaignExecutor(batch_size=16).run(campaign)
        _FLAKY_DECISIONS["left"] = 1
        simulated = []
        original = batchpath.simulate_batch

        def spy(members, *args, **kwargs):
            simulated.extend(governor.name for _cluster, governor in members)
            return original(members, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(batchpath, "simulate_batch", spy)
            flaky = CampaignExecutor(
                batch_size=16, retry=RetryPolicy(max_attempts=2)
            ).run(campaign)
        assert _FLAKY_DECISIONS["left"] == 0
        by_label = {outcome.label: outcome for outcome in flaky}
        assert by_label["flaky"].ok and by_label["flaky"].attempts == 2
        assert by_label["ondemand"].ok and by_label["ondemand"].attempts == 1
        assert {o.result.engine_used for o in flaky} == {"batchpath"}
        # The healthy member ran once; only the failed one was retried.
        assert simulated.count("ondemand") == 1
        assert simulated.count("flaky-ondemand") == 2
        assert by_label["ondemand"].to_dict() == clean.outcomes[
            by_label["ondemand"].scenario_id
        ].to_dict()

    def test_group_members_run_under_the_per_attempt_timeout(self):
        """--timeout bounds each group member exactly as it bounds a singleton."""
        from repro.campaign.executor import CampaignExecutor, RetryPolicy

        campaign = _grid_campaign(
            "timeout-group",
            governor_specs={
                "ondemand": FactorySpec.of("ondemand"),
                "conservative": FactorySpec.of("conservative"),
            },
            num_frames=3000,
        )
        policy = RetryPolicy(timeout_s=0.001)
        for batch_size in (0, 16):
            result = CampaignExecutor(batch_size=batch_size, retry=policy).run(
                campaign
            )
            assert len(result) == 2
            for outcome in result:
                assert not outcome.ok, (batch_size, outcome.label)
                assert outcome.error.startswith("ScenarioTimeoutError"), outcome.error
