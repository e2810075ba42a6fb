"""Tests for the three-step communication routing layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.routing import RoutingLayer


class TestProxySelection:
    def test_proxies_spread_across_nics(self, cluster_a2):
        routing = RoutingLayer(cluster=cluster_a2)
        proxies = routing.select_proxies(node_id=0, count=4)
        nics = {cluster_a2.nic_of(r).nic_id for r in proxies}
        assert len(nics) == 4, "4 proxies on a 4-NIC node should use 4 distinct NICs"

    def test_preferred_ranks_are_used_first(self, cluster_a2):
        routing = RoutingLayer(cluster=cluster_a2)
        proxies = routing.select_proxies(node_id=0, preferred_ranks=(3, 5), count=2)
        assert 3 in proxies and 5 in proxies

    def test_count_is_capped_at_node_size(self, cluster_a2):
        routing = RoutingLayer(cluster=cluster_a2)
        proxies = routing.select_proxies(node_id=1, count=100)
        assert len(proxies) == cluster_a2.gpus_per_node
        assert all(cluster_a2.gpu(r).node_id == 1 for r in proxies)


class TestRouteDecomposition:
    def test_disabled_routing_is_a_direct_transfer(self, cluster_a2):
        routing = RoutingLayer(cluster=cluster_a2, enabled=False)
        decision = routing.route(0, 8, nbytes=1e6)
        assert decision.x1 == 1 and decision.x2 == 1
        assert len(decision.transfers) == 1
        assert decision.transfers[0].step == "transfer"

    def test_three_steps_present_when_enabled(self, cluster_a2):
        routing = RoutingLayer(cluster=cluster_a2)
        decision = routing.route(0, 8, nbytes=64e6, ring_ranks=(0, 8))
        steps = {t.step for t in decision.transfers}
        assert steps == {"dispatch", "transfer", "combine"}

    def test_bytes_are_conserved_across_the_inter_node_step(self, cluster_a2):
        routing = RoutingLayer(cluster=cluster_a2)
        nbytes = 48e6
        decision = routing.route(0, 8, nbytes=nbytes)
        transferred = sum(t.nbytes for t in decision.transfers_for_step("transfer"))
        assert transferred == pytest.approx(nbytes)

    def test_transfer_uses_multiple_nics(self, cluster_a2):
        routing = RoutingLayer(cluster=cluster_a2)
        decision = routing.route(0, 8, nbytes=64e6)
        nics = {
            cluster_a2.nic_of(t.src_rank).nic_id
            for t in decision.transfers_for_step("transfer")
        }
        assert len(nics) == cluster_a2.profile.nics_per_node

    def test_same_node_hop_rejected(self, cluster_a2):
        routing = RoutingLayer(cluster=cluster_a2)
        with pytest.raises(ValueError):
            routing.route(0, 1, nbytes=1e6)

    def test_proxy_counts_are_paired(self, tiny_cluster):
        routing = RoutingLayer(cluster=tiny_cluster)
        decision = routing.route(0, 4, nbytes=8e6)
        assert decision.x1 == decision.x2
        assert len(decision.transfers_for_step("transfer")) == decision.x1


class TestRouteMemo:
    def test_repeated_hop_shares_one_decision(self, cluster_a2):
        routing = RoutingLayer(cluster=cluster_a2)
        first = routing.route(0, 8, nbytes=64e6, ring_ranks=(0, 3, 8, 11))
        again = routing.route(0, 8, nbytes=64e6, ring_ranks=(0, 3, 8, 11))
        assert again is first

    def test_disabled_routing_is_memoised_too(self, cluster_a2):
        routing = RoutingLayer(cluster=cluster_a2, enabled=False)
        assert routing.route(0, 8, nbytes=1e6) is routing.route(0, 8, nbytes=1e6)

    def test_different_bytes_are_not_shared(self, cluster_a2):
        routing = RoutingLayer(cluster=cluster_a2)
        small = routing.route(0, 8, nbytes=1e6)
        large = routing.route(0, 8, nbytes=2e6)
        assert small is not large
        assert (small.total_bytes, large.total_bytes) == (1e6, 2e6)

    def test_different_rings_are_not_shared(self, cluster_a2):
        routing = RoutingLayer(cluster=cluster_a2)
        ring_a = routing.route(0, 8, nbytes=8e6, ring_ranks=(0, 8))
        ring_b = routing.route(0, 8, nbytes=8e6, ring_ranks=(0, 2, 8, 10))
        assert ring_a is not ring_b
        # The memo returns exactly what a fresh layer decides for each ring.
        fresh = RoutingLayer(cluster=cluster_a2)
        assert ring_b == fresh.route(0, 8, nbytes=8e6, ring_ranks=(0, 2, 8, 10))
        assert ring_a == fresh.route(0, 8, nbytes=8e6, ring_ranks=(0, 8))

    def test_invalid_hops_still_raise(self, cluster_a2):
        routing = RoutingLayer(cluster=cluster_a2)
        for _ in range(2):
            with pytest.raises(ValueError):
                routing.route(0, 1, nbytes=1e6)


class TestRoutedCost:
    def test_eq1_matches_manual_formula(self, cluster_a2):
        routing = RoutingLayer(cluster=cluster_a2)
        profile = cluster_a2.profile
        n, x1, x2 = 64e6, 8, 8
        expected = (
            profile.b_intra * n * (x1 - 1) / x1
            + profile.b_inter * max(n / x1, n / x2)
            + profile.b_intra * n * (x2 - 1) / x2
        )
        assert routing.routed_cost(n, x1, x2) == pytest.approx(expected)

    def test_routing_beats_direct_transfer_for_large_payloads(self, cluster_a2):
        routing = RoutingLayer(cluster=cluster_a2)
        assert routing.speedup(64e6, 8, 8) > 3.0

    def test_single_proxy_matches_direct_cost(self, cluster_a2):
        routing = RoutingLayer(cluster=cluster_a2)
        assert routing.routed_cost(1e6, 1, 1) == pytest.approx(routing.direct_cost(1e6))

    @settings(max_examples=40, deadline=None)
    @given(
        nbytes=st.floats(min_value=1e3, max_value=1e9),
        x=st.integers(min_value=1, max_value=8),
    )
    def test_property_routed_cost_never_exceeds_direct(self, cluster_a2, nbytes, x):
        # With paired proxy counts (as the routing layer enforces) and the
        # >10x bandwidth gap of Cluster A, the routed decomposition is never
        # slower than the direct single-NIC transfer.
        routing = RoutingLayer(cluster=cluster_a2)
        assert routing.routed_cost(nbytes, x, x) <= routing.direct_cost(nbytes) * 1.0001

    @settings(max_examples=30, deadline=None)
    @given(x=st.integers(min_value=1, max_value=8))
    def test_property_more_proxies_never_hurt(self, cluster_a2, x):
        routing = RoutingLayer(cluster=cluster_a2)
        n = 32e6
        assert routing.routed_cost(n, x, x) >= routing.routed_cost(n, 8, 8) - 1e-12
