"""Tests for the cluster topology model and presets."""

import pytest

from repro.cluster.bandwidth import LinkModel, gBps, gbps
from repro.cluster.presets import cluster_a, cluster_b, cluster_c, make_cluster


class TestLinkModel:
    def test_transfer_time_includes_latency(self):
        link = LinkModel(bandwidth_bytes_per_s=1e9, latency_s=1e-6)
        assert link.transfer_time(1e9) == pytest.approx(1.0 + 1e-6)

    def test_zero_bytes_is_free(self):
        link = LinkModel(bandwidth_bytes_per_s=1e9, latency_s=1e-6)
        assert link.transfer_time(0) == 0.0

    def test_inverse_bandwidth(self):
        link = LinkModel(bandwidth_bytes_per_s=4e9)
        assert link.inverse_bandwidth == pytest.approx(0.25e-9)

    def test_scaled_multiplies_bandwidth(self):
        link = LinkModel(bandwidth_bytes_per_s=1e9)
        assert link.scaled(4).bandwidth_bytes_per_s == pytest.approx(4e9)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            LinkModel(bandwidth_bytes_per_s=0)

    def test_unit_helpers(self):
        assert gbps(200) == pytest.approx(25e9)
        assert gBps(400) == pytest.approx(400e9)


class TestBandwidthProfile:
    def test_paper_notation_accessors(self, cluster_a2):
        profile = cluster_a2.profile
        assert profile.b_intra == pytest.approx(1 / 400e9)
        assert profile.b_inter == pytest.approx(1 / 25e9)

    def test_bandwidth_gap_cluster_a(self, cluster_a2):
        # 400 GB/s NVSwitch vs 25 GB/s per NIC -> 16x gap, the ratio that
        # Eq. (1) routing and the remap weights trade off.
        profile = cluster_a2.profile
        assert profile.b_inter / profile.b_intra == pytest.approx(16.0)


class TestClusterTopology:
    def test_world_size_and_rank_numbering(self, cluster_a2):
        assert cluster_a2.world_size == 16
        assert cluster_a2.gpus_per_node == 8
        gpu = cluster_a2.gpu(11)
        assert gpu.node_id == 1 and gpu.local_rank == 3

    def test_out_of_range_rank_raises(self, cluster_a2):
        with pytest.raises(KeyError):
            cluster_a2.gpu(99)

    def test_same_node_and_nic_affinity(self, cluster_a2):
        assert cluster_a2.same_node(0, 7)
        assert not cluster_a2.same_node(7, 8)
        # Cluster A: GPUs 0 and 1 share NIC 0, GPUs 2 and 3 share NIC 1.
        assert cluster_a2.nic_of(0).nic_id == cluster_a2.nic_of(1).nic_id == 0
        assert cluster_a2.nic_of(2).nic_id == cluster_a2.nic_of(3).nic_id == 1

    def test_ranks_on_node(self, cluster_a2):
        assert cluster_a2.ranks_on_node(1) == tuple(range(8, 16))

    def test_nic_affinity_counts(self, cluster_a2, cluster_b2, cluster_c2):
        assert cluster_a2.profile.gpus_per_nic == 2
        assert cluster_b2.profile.gpus_per_nic == 1
        assert cluster_c2.profile.gpus_per_nic == 1

    def test_cluster_c_has_higher_nic_bandwidth(self, cluster_a2, cluster_c2):
        assert (
            cluster_c2.profile.nic.bandwidth_bytes_per_s
            > cluster_a2.profile.nic.bandwidth_bytes_per_s
        )

    def test_describe_mentions_device_type(self, cluster_a2):
        assert "A800" in cluster_a2.describe()


class TestMakeCluster:
    def test_invalid_device_type(self):
        with pytest.raises(ValueError):
            make_cluster("x", num_nodes=1, device_type="TPU")

    def test_nics_must_divide_gpus(self):
        with pytest.raises(ValueError):
            make_cluster("x", num_nodes=1, gpus_per_node=8, nics_per_node=3)

    def test_presets_scale_with_node_count(self):
        assert cluster_a(num_nodes=4).world_size == 32
        assert cluster_b(num_nodes=1).world_size == 8
        assert cluster_c(num_nodes=2).num_nodes == 2

    def test_every_gpu_has_a_nic(self, tiny_cluster):
        for rank in tiny_cluster.iter_ranks():
            nic = tiny_cluster.nic_of(rank)
            assert tiny_cluster.gpu(rank).local_rank in nic.gpu_local_ranks
