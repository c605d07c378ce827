"""Unit tests for the checkpoint kinds and cost model."""

import pytest

from repro.core.checkpoints import CheckpointKind, CostModel
from repro.errors import ConfigurationError, ParameterError


class TestCheckpointKind:
    def test_scp_stores_without_comparing(self):
        assert CheckpointKind.SCP.stores
        assert not CheckpointKind.SCP.compares

    def test_ccp_compares_without_storing(self):
        assert CheckpointKind.CCP.compares
        assert not CheckpointKind.CCP.stores

    def test_cscp_does_both(self):
        assert CheckpointKind.CSCP.stores
        assert CheckpointKind.CSCP.compares


class TestCostModel:
    def test_checkpoint_cycles_is_sum(self):
        costs = CostModel(store_cycles=2, compare_cycles=20)
        assert costs.checkpoint_cycles == 22

    def test_paper_scp_parameters(self):
        costs = CostModel.scp_favourable()
        assert costs.store_cycles == 2
        assert costs.compare_cycles == 20
        assert costs.rollback_cycles == 0
        assert costs.checkpoint_cycles == 22

    def test_paper_ccp_parameters(self):
        costs = CostModel.ccp_favourable()
        assert costs.store_cycles == 20
        assert costs.compare_cycles == 2
        assert costs.checkpoint_cycles == 22

    def test_favouring_picks_the_variant_tables_costs(self):
        assert CostModel.favouring("scp") == CostModel.scp_favourable()
        assert CostModel.favouring("ccp") == CostModel.ccp_favourable()
        with pytest.raises(ConfigurationError, match="'cscp'"):
            CostModel.favouring("cscp")

    def test_cycles_of_each_kind(self):
        costs = CostModel(store_cycles=3, compare_cycles=7)
        assert costs.cycles_of(CheckpointKind.SCP) == 3
        assert costs.cycles_of(CheckpointKind.CCP) == 7
        assert costs.cycles_of(CheckpointKind.CSCP) == 10

    def test_at_frequency_scales_costs(self):
        costs = CostModel(store_cycles=4, compare_cycles=6, rollback_cycles=2)
        timed = costs.at_frequency(2.0)
        assert timed.store == 2.0
        assert timed.compare == 3.0
        assert timed.rollback == 1.0
        assert timed.checkpoint == 5.0

    def test_at_frequency_rejects_non_positive(self):
        with pytest.raises(ParameterError):
            CostModel().at_frequency(0.0)
        with pytest.raises(ParameterError):
            CostModel().at_frequency(-1.0)

    def test_negative_costs_rejected(self):
        with pytest.raises(ParameterError):
            CostModel(store_cycles=-1)
        with pytest.raises(ParameterError):
            CostModel(compare_cycles=-1)
        with pytest.raises(ParameterError):
            CostModel(rollback_cycles=-1)

    def test_all_zero_costs_rejected(self):
        with pytest.raises(ParameterError):
            CostModel(store_cycles=0, compare_cycles=0)

    def test_frozen(self):
        costs = CostModel()
        with pytest.raises(AttributeError):
            costs.store_cycles = 5
