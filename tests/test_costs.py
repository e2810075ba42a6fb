"""Tests for the compute and communication cost models."""

import pytest

from repro.costs.calibration import CALIBRATION_POINTS, get_calibration
from repro.costs.comm import CommCostModel
from repro.costs.compute import KERNEL_OVERHEAD_S, ComputeCostModel


@pytest.fixture
def compute_a800():
    return ComputeCostModel(peak_flops=312e12, device_type="A800")


class TestComputeCostModel:
    def test_attention_time_quadratic_scaling(self, compute_a800, spec_7b):
        t1 = compute_a800.attention_time(spec_7b, 8192, num_layers=1)
        t2 = compute_a800.attention_time(spec_7b, 16384, num_layers=1)
        assert 3.5 < t2 / t1 < 4.5

    def test_linear_time_linear_scaling(self, compute_a800, spec_7b):
        t1 = compute_a800.linear_time(spec_7b, 4096, num_layers=1)
        t2 = compute_a800.linear_time(spec_7b, 8192, num_layers=1)
        assert 1.8 < t2 / t1 < 2.2

    def test_kernel_overhead_dominates_tiny_workloads(self, compute_a800, spec_7b):
        tiny = compute_a800.attention_time(spec_7b, 16, num_layers=1)
        assert tiny >= KERNEL_OVERHEAD_S

    def test_zero_work_is_free(self, compute_a800, spec_7b):
        assert compute_a800.attention_pairs_time(spec_7b, 0) == 0.0
        assert compute_a800.linear_time(spec_7b, 0) == 0.0

    def test_tensor_parallel_divides_time(self, spec_7b):
        tp1 = ComputeCostModel(peak_flops=312e12, tensor_parallel=1)
        tp2 = ComputeCostModel(peak_flops=312e12, tensor_parallel=2)
        t1 = tp1.attention_time(spec_7b, 32768, num_layers=1)
        t2 = tp2.attention_time(spec_7b, 32768, num_layers=1)
        assert t2 < t1
        assert t2 == pytest.approx((t1 - KERNEL_OVERHEAD_S) / 2 + KERNEL_OVERHEAD_S)

    def test_hopper_devices_are_faster(self, spec_7b):
        a800 = ComputeCostModel(peak_flops=312e12, device_type="A800")
        h200 = ComputeCostModel(peak_flops=990e12, device_type="H200")
        assert h200.attention_time(spec_7b, 65536, num_layers=1) < a800.attention_time(
            spec_7b, 65536, num_layers=1
        )

    def test_fig5_calibration_attention_64k(self, compute_a800, spec_7b):
        """Fig. 5: ~200-240 ms for 64k-token causal attention on one A800."""
        point = get_calibration("fig5_attention_64k_a800")
        measured = compute_a800.attention_time(spec_7b, 65536, num_layers=1)
        assert measured == pytest.approx(point.value_s, rel=point.rtol)

    def test_unknown_device_type_raises(self):
        with pytest.raises(ValueError, match="'A800', 'H200', 'H800'"):
            ComputeCostModel(peak_flops=1e15, device_type="H100")

    def test_describe(self, compute_a800):
        assert "A800" in compute_a800.describe()


class TestCommCostModel:
    def test_inter_node_time_scales_with_nics(self, cluster_a2):
        comm = CommCostModel(cluster_a2)
        one = comm.inter_node_time(100e6, nics=1)
        four = comm.inter_node_time(100e6, nics=4)
        assert four < one
        # NIC count is capped at the node's installed NICs.
        assert comm.inter_node_time(100e6, nics=100) == pytest.approx(four)

    def test_inter_node_time_aggregates_nic_bandwidth(self, cluster_a2):
        # Cluster A: four 25 GB/s NICs per node stripe into one 100 GB/s link.
        comm = CommCostModel(cluster_a2)
        latency = cluster_a2.profile.nic.latency_s
        assert comm.inter_node_time(1e9, nics=4) == pytest.approx(latency + 1e9 / 100e9)

    def test_intra_node_transfer_beats_one_nic(self, cluster_a2):
        comm = CommCostModel(cluster_a2)
        nbytes = 64e6
        assert comm.intra_node_time(nbytes) < comm.inter_node_time(nbytes, nics=1)
        assert comm.intra_node_time(0) == comm.inter_node_time(0) == 0.0

    def test_kv_chunk_bytes(self, cluster_a2, spec_7b):
        comm = CommCostModel(cluster_a2)
        assert comm.kv_chunk_bytes(spec_7b, 4096) == pytest.approx(4096 * 16384)

    def test_fig12_te_round_calibration(self, cluster_a2, spec_3b):
        """Fig. 12.a: one 4k-token KV hop over a single NIC takes ~2 ms."""
        comm = CommCostModel(cluster_a2)
        point = get_calibration("fig12_te_inter_node_round")
        measured = comm.inter_node_time(comm.kv_chunk_bytes(spec_3b, 4096), nics=1)
        assert measured == pytest.approx(point.value_s, rel=point.rtol)

    def test_allgather_single_rank_is_free(self, cluster_a2):
        comm = CommCostModel(cluster_a2)
        assert comm.allgather_time((0,), 1e6) == 0.0

    def test_allgather_cross_node_slower_than_intra(self, cluster_a2):
        comm = CommCostModel(cluster_a2)
        intra_group = tuple(range(8))
        cross_group = tuple(range(16))
        assert comm.allgather_time(cross_group, 8e6) > comm.allgather_time(
            intra_group, 16e6
        )

    def test_allgather_within_a_node_moves_the_ring_volume(self, cluster_a2):
        # Each of the 8 ranks receives the other 7 ranks' 1 MB over NVSwitch.
        comm = CommCostModel(cluster_a2)
        assert comm.allgather_time(tuple(range(8)), 1e6) == pytest.approx(
            comm.intra_node_time(7e6)
        )

    def test_allgather_nic_striping_helps(self, cluster_a2):
        comm = CommCostModel(cluster_a2)
        group = tuple(range(16))
        assert comm.allgather_time(group, 8e6, nics=4) < comm.allgather_time(
            group, 8e6, nics=1
        )


class TestCalibrationRegistry:
    def test_all_points_positive(self):
        for point in CALIBRATION_POINTS.values():
            assert point.value_s > 0

    def test_unknown_point_raises(self):
        with pytest.raises(KeyError):
            get_calibration("nonexistent")
