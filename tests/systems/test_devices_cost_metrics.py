"""Tests for device profiles, the cost model and the training metrics."""

import numpy as np
import pytest

from repro.sparsity import SparseCost
from repro.systems import (CAPABILITY_LEVELS, MIN_AFFORDABLE_RATIO,
                           CostBreakdown, DeviceFleet, DeviceProfile,
                           LocalCostModel, RoundRecord, TrainingHistory,
                           VirtualDeviceFleet, affordable_ratio)


class TestDeviceProfile:
    def test_capability_levels_include_paper_tiers(self):
        assert set(CAPABILITY_LEVELS) == {1.0, 0.5, 0.25, 0.125, 0.0625}

    def test_invalid_capability(self):
        with pytest.raises(ValueError):
            DeviceProfile(0, capability=0.0)
        with pytest.raises(ValueError):
            DeviceProfile(0, capability=1.5)

    def test_throughput_scales_with_capability(self):
        strong = DeviceProfile(0, capability=1.0)
        weak = DeviceProfile(1, capability=0.25)
        assert strong.flops_per_second == pytest.approx(4 * weak.flops_per_second)

    def test_static_device_never_fluctuates(self):
        device = DeviceProfile(0, capability=0.5, dynamic=False)
        assert device.available_capability(3) == 0.5

    def test_dynamic_device_fluctuates_but_is_deterministic(self):
        device = DeviceProfile(0, capability=0.5, dynamic=True, fluctuation=0.3)
        a = device.available_capability(3, seed=1)
        b = device.available_capability(3, seed=1)
        assert a == b
        assert 0.5 * 0.7 <= a <= 0.5

    def test_affordable_ratio_floor(self):
        assert affordable_ratio(1.0) == 1.0
        assert affordable_ratio(1 / 16) == MIN_AFFORDABLE_RATIO
        with pytest.raises(ValueError):
            affordable_ratio(0.0)


class TestFleet:
    def test_sample_fleet_size_and_levels(self):
        fleet = VirtualDeviceFleet(20, seed=0)
        assert len(fleet) == 20
        assert {fleet[cid].capability for cid in range(20)} \
            <= set(CAPABILITY_LEVELS)

    @pytest.mark.parametrize("bandwidth_levels", [(1.0, 0.5), (1.0,)],
                             ids=["two-draws", "one-draw"])
    def test_numpy_integer_ids_index_like_ints(self, bandwidth_levels):
        """A numpy integer id — the fleet's own ``client_ids`` yield them —
        gets the profile its ``int`` gets (each fleet fresh, so no memo
        hides the sampler)."""
        def fresh():
            return VirtualDeviceFleet(20, seed=0,
                                      bandwidth_levels=bandwidth_levels)

        expected = [fresh()[cid] for cid in range(20)]
        fleet = fresh()
        assert [fleet[cid] for cid in fleet.client_ids] == expected
        for dtype in (np.int64, np.int32):
            fleet = fresh()
            profiles = [fleet[dtype(cid)] for cid in range(20)]
            assert profiles == expected
            assert {type(profile.client_id) for profile in profiles} == {int}

    def test_fleet_lookup_errors(self):
        fleet = VirtualDeviceFleet(3, seed=0)
        with pytest.raises(KeyError):
            fleet[99]

    def test_invalid_sampling(self):
        with pytest.raises(ValueError):
            VirtualDeviceFleet(0)
        with pytest.raises(ValueError):
            VirtualDeviceFleet(5, levels=())

    def test_device_fleet_container(self):
        fleet = DeviceFleet({0: DeviceProfile(0, 1.0)})
        assert list(fleet.client_ids) == [0]


class TestCostModel:
    def test_weak_device_is_slower(self):
        model = LocalCostModel(alpha=1.0)
        cost = SparseCost(flops=1e9, upload_bytes=1e5, download_bytes=1e5)
        strong = model.client_cost(DeviceProfile(0, 1.0), cost)
        weak = model.client_cost(DeviceProfile(1, 0.25), cost)
        assert weak.computation_seconds > strong.computation_seconds

    def test_alpha_weights_communication(self):
        cost = SparseCost(flops=0.0, upload_bytes=1e6, download_bytes=0.0)
        device = DeviceProfile(0, 1.0)
        cheap = LocalCostModel(alpha=0.5).client_cost(device, cost)
        expensive = LocalCostModel(alpha=2.0).client_cost(device, cost)
        assert expensive.communication_seconds == pytest.approx(
            4 * cheap.communication_seconds)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            LocalCostModel(alpha=-1.0)

    def test_round_time_is_max(self):
        costs = [CostBreakdown(1.0, 0.5), CostBreakdown(0.2, 0.1)]
        assert LocalCostModel.round_time(costs) == pytest.approx(1.5)
        assert LocalCostModel.round_time([]) == 0.0

    def test_total_seconds(self):
        breakdown = CostBreakdown(1.0, 2.0)
        assert breakdown.total_seconds == 3.0


def _record(i, accuracy, flops=10.0, seconds=1.0):
    return RoundRecord(round_index=i, selected_clients=[0],
                       train_accuracy=accuracy, test_accuracy=accuracy,
                       round_flops=flops, round_time_seconds=seconds,
                       upload_bytes=5.0, download_bytes=5.0,
                       cumulative_flops=flops * (i + 1),
                       cumulative_time_seconds=seconds * (i + 1))


class TestTrainingHistory:
    def test_append_enforces_order(self):
        history = TrainingHistory("m", "d")
        history.append(_record(0, 0.1))
        with pytest.raises(ValueError):
            history.append(_record(0, 0.2))

    def test_series_and_totals(self):
        history = TrainingHistory("m", "d")
        for i, acc in enumerate([0.1, 0.5, 0.7]):
            history.append(_record(i, acc))
        assert history.accuracies == [0.1, 0.5, 0.7]
        assert history.total_flops == pytest.approx(30.0)
        assert history.total_time_seconds == pytest.approx(3.0)
        assert history.total_upload_bytes == pytest.approx(15.0)
        assert len(history) == 3

    def test_final_and_best_accuracy(self):
        history = TrainingHistory("m", "d")
        for i, acc in enumerate([0.1, 0.9, 0.5]):
            history.append(_record(i, acc))
        assert history.best_accuracy() == 0.9
        assert history.final_accuracy(2) == pytest.approx(0.7)
        assert TrainingHistory("m", "d").final_accuracy() == 0.0

    def test_time_and_flops_to_accuracy(self):
        history = TrainingHistory("m", "d")
        for i, acc in enumerate([0.1, 0.5, 0.7]):
            history.append(_record(i, acc))
        assert history.time_to_accuracy(0.5) == pytest.approx(2.0)
        assert history.flops_to_accuracy(0.7) == pytest.approx(30.0)
        assert history.time_to_accuracy(0.99) is None

    def test_accuracy_at_flops_budget(self):
        history = TrainingHistory("m", "d")
        for i, acc in enumerate([0.1, 0.5, 0.7]):
            history.append(_record(i, acc))
        assert history.accuracy_at_flops(20.0) == 0.5
        assert history.accuracy_at_flops(5.0) == 0.0

    def test_as_rows(self):
        history = TrainingHistory("m", "d")
        history.append(_record(0, 0.2))
        rows = history.as_rows()
        assert rows[0]["round"] == 0
        assert rows[0]["test_accuracy"] == 0.2

    def test_dict_round_trip_is_exact(self):
        history = TrainingHistory("m", "d")
        for i, acc in enumerate([0.1, 0.5]):
            record = _record(i, acc)
            record.sparse_ratios = {3: 0.5, 7: 1.0}
            record.evaluated = i == 1
            history.append(record)
        restored = TrainingHistory.from_dict(history.to_dict())
        assert restored.to_dict() == history.to_dict()
        assert restored.records[0].sparse_ratios == {3: 0.5, 7: 1.0}
        assert [r.evaluated for r in restored.records] == [False, True]
        assert restored.records[0].selected_clients == [0]

    def test_from_dict_defaults_evaluated(self):
        # histories cached before the flag existed load as "fresh"
        payload = _record(0, 0.2).to_dict()
        del payload["evaluated"]
        assert RoundRecord.from_dict(payload).evaluated is True
