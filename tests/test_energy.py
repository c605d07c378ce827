"""Unit tests for the energy model."""

from functools import partial

import pytest

from repro.core.checkpoints import CostModel
from repro.core.dvs import SpeedLadder
from repro.core.schemes import AdaptiveConfig, AdaptiveDVSPolicy, AdaptiveSCPPolicy
from repro.errors import ParameterError
from repro.sim.energy import EnergyModel
from repro.sim.executor import simulate_run
from repro.sim.faults import ScriptedFaults
from repro.sim.montecarlo import estimate
from repro.sim.task import TaskSpec


class TestEnergyModel:
    def test_paper_dmr_calibration(self):
        # E = 2 proc · V² · cycles with V = sqrt(2f):
        # 4·cycles at f1, 8·cycles at f2 — the published table scale.
        model = EnergyModel.paper_dmr()
        assert model.segment_energy(1.0, 100.0) == pytest.approx(400.0)
        assert model.segment_energy(2.0, 100.0) == pytest.approx(800.0)

    def test_linear_voltage(self):
        model = EnergyModel.linear_voltage()
        assert model.segment_energy(1.0, 100.0) == pytest.approx(200.0)
        assert model.segment_energy(2.0, 100.0) == pytest.approx(800.0)

    def test_from_ladder_uses_ladder_voltages(self):
        ladder = SpeedLadder(frequencies=(1.0, 2.0), voltages=(1.0, 3.0))
        model = EnergyModel.from_ladder(ladder)
        assert model.segment_energy(2.0, 10.0) == pytest.approx(2 * 9 * 10)

    def test_from_ladder_charges_inner_levels(self):
        # V = sqrt(2f) on every level: 2 proc · 2f per cycle, as paper_dmr.
        ladder = SpeedLadder.from_frequencies(tuple(1.0 + i / 3 for i in range(4)))
        model = EnergyModel.from_ladder(ladder)
        for f in ladder.frequencies:
            assert model.segment_energy(f, 30.0) == pytest.approx(4 * f * 30.0)
            assert model.segment_energy(f, 30.0) == pytest.approx(
                EnergyModel.paper_dmr().segment_energy(f, 30.0)
            )

    def test_single_processor(self):
        model = EnergyModel(voltage_of=lambda f: 1.0, n_processors=1)
        assert model.segment_energy(1.0, 50.0) == pytest.approx(50.0)

    def test_rejects_negative_cycles(self):
        with pytest.raises(ParameterError):
            EnergyModel.paper_dmr().segment_energy(1.0, -1.0)

    def test_rejects_zero_processors(self):
        with pytest.raises(ParameterError):
            EnergyModel(voltage_of=lambda f: 1.0, n_processors=0)


class TestRunEnergy:
    """A run's energy is its cycles, per frequency, through the model."""

    @staticmethod
    def switching_run(ladder, energy_model=None):
        # U = 0.92: the (1, 1.5, 2) ladder starts at 1.5 and drops to f1
        # after the fault at t = 500.
        task = TaskSpec(
            cycles=9_200.0,
            deadline=10_000.0,
            fault_budget=1,
            fault_rate=1e-4,
            costs=CostModel.scp_favourable(),
        )
        return simulate_run(
            task,
            AdaptiveSCPPolicy(AdaptiveConfig(ladder=ladder)),
            ScriptedFaults([500.0]),
            energy_model,
        )

    def test_energy_sums_segments_by_frequency(self):
        result = self.switching_run(SpeedLadder.from_frequencies((1.0, 1.5, 2.0)))
        assert set(result.cycles_by_frequency) == {1.0, 1.5}
        assert sum(result.cycles_by_frequency.values()) == pytest.approx(
            result.cycles_executed
        )
        model = EnergyModel.paper_dmr()
        assert result.energy == pytest.approx(
            sum(
                model.segment_energy(f, cycles)
                for f, cycles in result.cycles_by_frequency.items()
            )
        )

    def test_run_charges_the_given_model(self):
        ladder = SpeedLadder.from_frequencies((1.0, 1.5, 2.0), voltage_exponent=1.0)
        model = EnergyModel.from_ladder(ladder)
        result = self.switching_run(ladder, model)
        default = self.switching_run(ladder)
        # Same speeds and cycles; only the 1.5 segment's voltage differs
        # (V² = 4.5 against 3 under the default sqrt(2f) model).
        assert result.cycles_by_frequency == default.cycles_by_frequency
        assert result.energy == pytest.approx(
            sum(
                model.segment_energy(f, cycles)
                for f, cycles in result.cycles_by_frequency.items()
            )
        )
        assert result.energy - default.energy == pytest.approx(
            2 * (4.5 - 3.0) * result.cycles_by_frequency[1.5]
        )

    def test_fault_free_run_at_f1_charges_the_dmr_pair(self):
        task = TaskSpec(
            cycles=5_000.0,
            deadline=10_000.0,
            fault_budget=5,
            fault_rate=1.4e-3,
            costs=CostModel.scp_favourable(),
        )
        result = simulate_run(task, AdaptiveDVSPolicy(), ScriptedFaults([]))
        assert result.cycles_by_frequency == {1.0: result.cycles_executed}
        # 2 processors · V² = 2 per cycle.
        assert result.energy == pytest.approx(4 * result.cycles_executed)


class TestLadderVoltages:
    """A ladder's voltages reach the energy charged only through
    ``EnergyModel.from_ladder``."""

    FREQUENCIES = tuple(1.0 + i / 3 for i in range(4))

    @staticmethod
    def timely_energy(ladder, energy_model=None):
        task = TaskSpec(
            cycles=9_200.0,
            deadline=10_000.0,
            fault_budget=1,
            fault_rate=1e-4,
            costs=CostModel.scp_favourable(),
        )
        return estimate(
            task,
            partial(AdaptiveSCPPolicy, AdaptiveConfig(ladder=ladder)),
            reps=60,
            seed=1,
            energy_model=energy_model,
        ).e

    def test_ladder_voltages_charged_only_through_from_ladder(self):
        sqrt_f = SpeedLadder.from_frequencies(self.FREQUENCIES)
        linear = SpeedLadder.from_frequencies(
            self.FREQUENCIES, voltage_exponent=1.0
        )
        # Without an energy model both ladders charge V = sqrt(2f).
        default = self.timely_energy(sqrt_f)
        assert self.timely_energy(linear) == default
        assert default == pytest.approx(50_184, abs=1)
        charged = self.timely_energy(linear, EnergyModel.from_ladder(linear))
        assert charged == pytest.approx(64_139, abs=1)
