"""Tests for the remapping layer (Eq. 2 minimax transfer optimisation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.cluster.presets import cluster_a
from repro.core.remapping import RemappingLayer, RemapPlan


def tokens_dict(cluster, values):
    ranks = list(cluster.iter_ranks())[: len(values)]
    return dict(zip(ranks, values))


class TestRemapPlanConstruction:
    def test_balanced_input_needs_no_transfers(self, cluster_a2):
        layer = RemappingLayer(cluster=cluster_a2)
        plan = layer.plan({r: 4096 for r in cluster_a2.iter_ranks()})
        assert plan.total_moved_tokens == 0.0
        assert plan.max_rank_cost_s == 0.0

    def test_result_is_token_balanced(self, cluster_a2):
        layer = RemappingLayer(cluster=cluster_a2)
        counts = {r: 1000 * (r + 1) for r in cluster_a2.iter_ranks()}
        plan = layer.plan(counts)
        resulting = plan.resulting_tokens()
        target = sum(counts.values()) / len(counts)
        np.testing.assert_allclose(resulting, target, rtol=1e-6)

    def test_surplus_ranks_only_send_and_deficit_ranks_only_receive(self, cluster_a2):
        layer = RemappingLayer(cluster=cluster_a2)
        counts = {r: (8000 if r < 8 else 200) for r in cluster_a2.iter_ranks()}
        plan = layer.plan(counts)
        mean = sum(counts.values()) / len(counts)
        for i, rank in enumerate(plan.ranks):
            sent = sum(plan.transfer_tokens[i])
            received = sum(row[i] for row in plan.transfer_tokens)
            if counts[rank] > mean:
                assert received == pytest.approx(0.0, abs=1e-6)
                assert sent == pytest.approx(counts[rank] - mean, rel=1e-6)
            else:
                assert sent == pytest.approx(0.0, abs=1e-6)

    def test_inverse_restores_original_layout(self, cluster_a2):
        layer = RemappingLayer(cluster=cluster_a2)
        counts = {r: 500 + 300 * r for r in cluster_a2.iter_ranks()}
        plan = layer.plan(counts)
        inverse = plan.inverse()
        restored = inverse.resulting_tokens()
        np.testing.assert_allclose(
            restored, [counts[r] for r in plan.ranks], rtol=1e-6
        )

    def test_lp_prefers_intra_node_transfers(self, cluster_a2):
        # Surplus on node 0 and deficit on node 0 can be satisfied without ever
        # touching the inter-node link.
        layer = RemappingLayer(cluster=cluster_a2, solver="linprog")
        counts = {r: 4096 for r in cluster_a2.iter_ranks()}
        counts[0] = 8192
        counts[1] = 0
        plan = layer.plan(counts)
        moved_inter = 0.0
        for i, src in enumerate(plan.ranks):
            for j, dst in enumerate(plan.ranks):
                if not cluster_a2.same_node(src, dst):
                    moved_inter += plan.transfer_tokens[i][j]
        assert moved_inter == pytest.approx(0.0, abs=1e-6)

    def test_greedy_solver_satisfies_constraints(self, cluster_a2):
        layer = RemappingLayer(cluster=cluster_a2, solver="greedy")
        counts = {r: (6000 if r % 2 == 0 else 1000) for r in cluster_a2.iter_ranks()}
        plan = layer.plan(counts)
        assert plan.solver == "greedy"
        np.testing.assert_allclose(
            plan.resulting_tokens(), sum(counts.values()) / len(counts), rtol=1e-6
        )

    def test_lp_never_worse_than_greedy(self, cluster_a2):
        counts = {r: (10000 if r < 3 else 500) for r in cluster_a2.iter_ranks()}
        lp_plan = RemappingLayer(cluster=cluster_a2, solver="linprog").plan(counts)
        greedy_plan = RemappingLayer(cluster=cluster_a2, solver="greedy").plan(counts)
        assert lp_plan.max_rank_cost_s <= greedy_plan.max_rank_cost_s * 1.001

    def test_invalid_solver_rejected(self, cluster_a2):
        with pytest.raises(ValueError):
            RemappingLayer(cluster=cluster_a2, solver="magic")

    def test_empty_input_rejected(self, cluster_a2):
        with pytest.raises(ValueError):
            RemappingLayer(cluster=cluster_a2).plan({})


class TestCostMatrix:
    def test_intra_vs_inter_costs(self, cluster_a2):
        layer = RemappingLayer(cluster=cluster_a2)
        ranks = (0, 1, 8)
        t = layer.cost_matrix(ranks)
        profile = cluster_a2.profile
        assert t[0, 1] == pytest.approx(profile.b_intra)
        assert t[0, 2] == pytest.approx(profile.b_inter)
        assert t[0, 0] == 0.0
        np.testing.assert_allclose(t, t.T)


    def test_matches_pairwise_same_node_loop(self):
        cluster = cluster_a(num_nodes=4)
        layer = RemappingLayer(cluster=cluster)
        ranks = (0, 3, 8, 9, 17, 31)
        t = layer.cost_matrix(ranks)
        profile = cluster.profile
        for i, a in enumerate(ranks):
            for j, b in enumerate(ranks):
                if i == j:
                    expected = 0.0
                elif cluster.same_node(a, b):
                    expected = profile.b_intra
                else:
                    expected = profile.b_inter
                assert t[i, j] == expected


def dense_linprog(surplus, deficit, cost):
    """The remapping LP built from dense constraint matrices (test oracle)."""
    n = len(surplus)
    num_m = n * n
    c = np.zeros(num_m + 1)
    c[-1] = 1.0
    a_ub = np.zeros((n, num_m + 1))
    for i in range(n):
        a_ub[i, i * n : (i + 1) * n] = cost[i]
        a_ub[i, -1] = -1.0
    a_eq = np.zeros((2 * n, num_m + 1))
    for i in range(n):
        a_eq[i, i * n : (i + 1) * n] = 1.0
    for j in range(n):
        a_eq[n + j, j:num_m:n] = 1.0
    result = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(n),
        A_eq=a_eq,
        b_eq=np.concatenate([surplus, deficit]),
        bounds=[(0, None)] * (num_m + 1),
        method="highs",
    )
    assert result.success
    matrix = np.array(result.x[:num_m]).reshape(n, n)
    matrix[matrix < 1e-9] = 0.0
    np.fill_diagonal(matrix, 0.0)
    return matrix


class TestSparseLP:
    @pytest.mark.parametrize("num_ranks", [8, 16, 64, 128])
    def test_sparse_lp_equals_dense_lp(self, num_ranks):
        layer = RemappingLayer(cluster=cluster_a(num_nodes=num_ranks // 8))
        rng = np.random.default_rng(num_ranks)
        tokens = rng.integers(0, 20_000, size=num_ranks).astype(float)
        mean = tokens.mean()
        surplus = np.maximum(tokens - mean, 0.0)
        deficit = np.maximum(mean - tokens, 0.0)
        cost = layer.cost_matrix(tuple(range(num_ranks))) * 4096.0
        matrix = layer._solve_linprog(surplus, deficit, cost)
        assert np.array_equal(matrix, dense_linprog(surplus, deficit, cost))


class TestRemappingProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        counts=st.lists(
            st.integers(min_value=0, max_value=20000), min_size=2, max_size=8
        ),
        solver=st.sampled_from(["linprog", "greedy"]),
    )
    def test_property_constraints_hold(self, tiny_cluster, counts, solver):
        layer = RemappingLayer(cluster=tiny_cluster, solver=solver)
        ranks = list(tiny_cluster.iter_ranks())[: len(counts)]
        plan = layer.plan(dict(zip(ranks, counts)))
        n = len(ranks)
        mean = sum(counts) / n
        matrix = np.array(plan.transfer_tokens)
        # Non-negativity.
        assert (matrix >= -1e-9).all()
        # Row sums equal surpluses, column sums equal deficits.
        surplus = np.maximum(np.array(counts, dtype=float) - mean, 0.0)
        deficit = np.maximum(mean - np.array(counts, dtype=float), 0.0)
        np.testing.assert_allclose(matrix.sum(axis=1), surplus, atol=1e-4)
        np.testing.assert_allclose(matrix.sum(axis=0), deficit, atol=1e-4)
        # The plan balances the layout.
        np.testing.assert_allclose(plan.resulting_tokens(), mean, atol=1e-4)


# Transfer matrices as solvers leave them: mostly +0.0 cells, a few positive.
_SPARSE_MATRICES = st.integers(1, 12).flatmap(
    lambda n: st.lists(
        st.lists(
            st.just(0.0) | st.floats(1e-6, 1e6) | st.integers(1, 10**6).map(float),
            min_size=n,
            max_size=n,
        ),
        min_size=n,
        max_size=n,
    )
)


class TestNonzeroTransfers:
    """The sparse walks equal the dense n*n loops they replace, bit for bit."""

    @staticmethod
    def _plan(matrix):
        n = len(matrix)
        return RemapPlan(
            ranks=tuple(range(n)),
            current=tuple(range(100, 100 + n)),
            target=tuple([100] * n),
            transfer_tokens=tuple(map(tuple, matrix)),
            max_rank_cost_s=0.0,
            solver="greedy",
        )

    @settings(max_examples=100, deadline=None)
    @given(_SPARSE_MATRICES)
    def test_sparse_walks_match_the_dense_loops(self, matrix):
        plan = self._plan(matrix)
        n = len(matrix)
        cells = [(i, j, matrix[i][j]) for i in range(n) for j in range(n)]
        assert list(plan.nonzero_transfers()) == [c for c in cells if c[2] != 0]
        dense = [float(c) for c in plan.current]
        for i, j, moved in cells:
            dense[i] -= moved
            dense[j] += moved
        assert [x.hex() for x in plan.resulting_tokens()] == [x.hex() for x in dense]
        transposed = tuple(tuple(matrix[j][i] for j in range(n)) for i in range(n))
        assert plan.inverse().transfer_tokens == transposed
