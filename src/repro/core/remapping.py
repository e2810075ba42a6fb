"""Remapping Layer (§3.4): re-balance tokens for the linear modules.

The attention-optimised placement can leave some ranks with many more tokens
than others, which is exactly wrong for the token-wise linear modules (MatMul,
LayerNorm, MoE).  Before the linear modules the remapping layer moves surplus
tokens to deficit ranks so every rank holds the average token count; after the
linear modules the inverse transfer restores the attention layout.

Which surplus rank ships tokens to which deficit rank is chosen by solving
Eq. (2): find a transfer matrix ``M`` (``M[i][j]`` = tokens moved from rank
``i`` to rank ``j``) that minimises the *maximum* per-rank weighted transfer
cost, where the weight is ``b_inter`` for cross-node moves and ``b_intra``
otherwise, subject to rows shipping exactly their surplus and columns receiving
exactly their deficit.  The paper solves this with Gurobi; we use
``scipy.optimize.linprog`` (HiGHS) and provide a locality-aware greedy fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.cluster.topology import Cluster
from repro.utils.validation import check_in, check_non_negative


@dataclass(frozen=True)
class RemapPlan:
    """A token-rebalancing plan for one direction (attention layout -> balanced).

    Attributes
    ----------
    ranks:
        The ranks participating in the remapping group, in matrix order.
    current:
        Token count per rank before remapping.
    target:
        Token count per rank after remapping (the balanced layout).
    transfer_tokens:
        ``transfer_tokens[i][j]`` tokens move from ``ranks[i]`` to ``ranks[j]``.
    max_rank_cost_s:
        The minimax objective value: the largest per-rank weighted send cost.
    solver:
        ``"linprog"`` or ``"greedy"`` — which method produced the plan.
    """

    ranks: tuple[int, ...]
    current: tuple[int, ...]
    target: tuple[int, ...]
    transfer_tokens: tuple[tuple[float, ...], ...]
    max_rank_cost_s: float
    solver: str

    @property
    def total_moved_tokens(self) -> float:
        """Total tokens moved by the plan."""
        return float(sum(sum(row) for row in self.transfer_tokens))

    def send_matrix_bytes(self, bytes_per_token: float) -> list[list[float]]:
        """Transfer matrix in bytes, for the alltoallv communication model."""
        check_non_negative("bytes_per_token", bytes_per_token)
        return [
            [cell * bytes_per_token for cell in row] for row in self.transfer_tokens
        ]

    def inverse(self) -> "RemapPlan":
        """The plan restoring the original layout (the transposed transfer)."""
        n = len(self.ranks)
        transposed = tuple(
            tuple(self.transfer_tokens[j][i] for j in range(n)) for i in range(n)
        )
        return RemapPlan(
            ranks=self.ranks,
            current=self.target,
            target=self.current,
            transfer_tokens=transposed,
            max_rank_cost_s=self.max_rank_cost_s,
            solver=self.solver,
        )

    def resulting_tokens(self) -> list[float]:
        """Token count per rank after applying the plan (must equal ``target``)."""
        n = len(self.ranks)
        result = [float(c) for c in self.current]
        for i in range(n):
            for j in range(n):
                moved = self.transfer_tokens[i][j]
                result[i] -= moved
                result[j] += moved
        return result


@dataclass
class RemappingLayer:
    """Builds remapping plans for a cluster.

    Parameters
    ----------
    cluster:
        Provides node membership (for the cost matrix ``T``) and bandwidths.
    solver:
        ``"linprog"``, ``"greedy"``, or ``"auto"`` (the default) which tries
        the LP and falls back to greedy if the solver fails.
    """

    cluster: Cluster
    solver: str = "auto"

    def __post_init__(self) -> None:
        check_in("solver", self.solver, ("linprog", "greedy", "auto"))

    # -- cost matrix -------------------------------------------------------------

    def cost_matrix(self, ranks: tuple[int, ...]) -> np.ndarray:
        """Symmetric per-token transfer cost between ranks (``T`` in Eq. 2)."""
        profile = self.cluster.profile
        nodes = np.array([self.cluster.gpu(r).node_id for r in ranks])
        same_node = nodes[:, None] == nodes[None, :]
        t = np.where(same_node, profile.b_intra, profile.b_inter)
        np.fill_diagonal(t, 0.0)
        return t

    # -- plan construction -----------------------------------------------------------

    def plan(
        self,
        tokens_per_rank: dict[int, int],
        bytes_per_token: float = 1.0,
    ) -> RemapPlan:
        """Build the balancing plan for the given per-rank token counts.

        ``bytes_per_token`` scales the cost matrix into seconds (it does not
        change the optimal transfer pattern, only the reported cost).
        """
        check_non_negative("bytes_per_token", bytes_per_token)
        ranks = tuple(sorted(tokens_per_rank))
        current = np.array([tokens_per_rank[r] for r in ranks], dtype=float)
        n = len(ranks)
        if n == 0:
            raise ValueError("tokens_per_rank must not be empty")
        target = np.full(n, current.sum() / n)

        surplus = np.maximum(current - target, 0.0)
        deficit = np.maximum(target - current, 0.0)
        cost = self.cost_matrix(ranks) * bytes_per_token

        if surplus.sum() < 1e-9:
            zero = tuple(tuple(0.0 for _ in range(n)) for _ in range(n))
            return RemapPlan(
                ranks=ranks,
                current=tuple(int(c) for c in current),
                target=tuple(int(round(t)) for t in target),
                transfer_tokens=zero,
                max_rank_cost_s=0.0,
                solver="trivial",
            )

        matrix = None
        used_solver = None
        if self.solver in ("linprog", "auto"):
            matrix = self._solve_linprog(surplus, deficit, cost)
            used_solver = "linprog"
        if matrix is None:
            if self.solver == "linprog":
                raise RuntimeError("linprog failed to solve the remapping LP")
            matrix = self._solve_greedy(surplus, deficit, cost)
            used_solver = "greedy"

        max_cost = float(np.max((cost * matrix).sum(axis=1))) if n else 0.0
        return RemapPlan(
            ranks=ranks,
            current=tuple(int(c) for c in current),
            target=tuple(int(round(t)) for t in target),
            transfer_tokens=tuple(tuple(float(x) for x in row) for row in matrix),
            max_rank_cost_s=max_cost,
            solver=used_solver,
        )

    # -- solvers ----------------------------------------------------------------------

    @staticmethod
    def _solve_linprog(
        surplus: np.ndarray, deficit: np.ndarray, cost: np.ndarray
    ) -> np.ndarray | None:
        """Minimise the maximum per-rank send cost with an LP.

        Variables: the ``n*n`` entries of ``M`` plus the bound ``t``.
        Minimise ``t`` subject to per-row cost <= ``t``, row sums equal to the
        surplus, and column sums equal to the deficit.  The constraint
        matrices are built sparse with exactly the nonzeros of their dense
        form, which is the CSC problem HiGHS receives either way.
        """
        n = len(surplus)
        num_m = n * n
        c = np.zeros(num_m + 1)
        c[-1] = 1.0  # minimise t

        # Row cost constraints: sum_j cost[i, j] * M[i, j] - t <= 0.
        rows, cols = np.nonzero(cost)
        a_ub = sparse.csr_array(
            (
                np.concatenate([cost[rows, cols], np.full(n, -1.0)]),
                (
                    np.concatenate([rows, np.arange(n)]),
                    np.concatenate([rows * n + cols, np.full(n, num_m)]),
                ),
            ),
            shape=(n, num_m + 1),
        )
        b_ub = np.zeros(n)

        # Equality constraints: row sums = surplus, column sums = deficit.
        m_ids = np.arange(num_m)
        a_eq = sparse.csr_array(
            (
                np.ones(2 * num_m),
                np.concatenate([m_ids, m_ids.reshape(n, n).T.ravel()]),
                np.arange(0, 2 * num_m + 1, n),
            ),
            shape=(2 * n, num_m + 1),
        )
        b_eq = np.concatenate([surplus, deficit])

        try:
            result = linprog(
                c,
                A_ub=a_ub,
                b_ub=b_ub,
                A_eq=a_eq,
                b_eq=b_eq,
                bounds=(0, None),
                method="highs",
            )
        except Exception:  # pragma: no cover - scipy failure is environment-specific
            return None
        if not result.success:
            return None
        matrix = np.array(result.x[:num_m]).reshape(n, n)
        matrix[matrix < 1e-9] = 0.0
        np.fill_diagonal(matrix, 0.0)
        return matrix

    def _solve_greedy(
        self, surplus: np.ndarray, deficit: np.ndarray, cost: np.ndarray
    ) -> np.ndarray:
        """Locality-aware greedy matching: satisfy deficits from the cheapest source."""
        n = len(surplus)
        matrix = np.zeros((n, n))
        remaining_surplus = surplus.copy()
        remaining_deficit = deficit.copy()
        # Pair (cost, source, destination) in increasing cost order so intra-node
        # moves are exhausted before any inter-node move is considered.
        pairs = sorted(
            (
                (cost[i, j], i, j)
                for i in range(n)
                for j in range(n)
                if i != j
            ),
            key=lambda item: item[0],
        )
        for _, i, j in pairs:
            if remaining_surplus[i] <= 1e-9 or remaining_deficit[j] <= 1e-9:
                continue
            moved = min(remaining_surplus[i], remaining_deficit[j])
            matrix[i, j] += moved
            remaining_surplus[i] -= moved
            remaining_deficit[j] -= moved
        return matrix
