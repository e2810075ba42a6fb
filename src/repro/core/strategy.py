"""Strategy interface and shared plan-emission helpers.

A *strategy* decides how a batch of variable-length sequences is distributed
across the cluster and what computation/communication each rank performs.  All
strategies (Zeppelin and the baselines) emit an :class:`ExecutionPlan` for one
transformer layer; the simulator times the plan and
:mod:`repro.training.iteration` scales it to a full iteration.

Planning a batch has two halves.  The *layout* (:meth:`Strategy.build_layout`)
is everything that depends only on the batch: which rank holds which tokens,
the ring queues and their chunk assignments, the remapping decision.  The
*emission* (:meth:`Strategy.plan_layer`) turns a layout into one pass's tasks;
the backward pass differs from the forward pass only by
:meth:`Strategy.phase_factors`.  :meth:`Strategy.layout` keeps the last
batch's layout, so a forward and a backward pass over one batch build it once.

Tensor parallelism is modelled at the logical-rank level: with
``tensor_parallel = t`` every ``t`` consecutive GPUs form one logical data/
context-parallel rank whose compute throughput is the aggregate of its GPUs
(the compute model divides per-rank FLOPs by ``t``) and whose network endpoint
is its first GPU — matching the paper's observation that TP groups on Cluster A
share a NIC.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

from repro.cluster.topology import Cluster
from repro.core.plan import ExecutionPlan, TaskKind
from repro.core.remapping import RemapPlan
from repro.costs.comm import CommCostModel
from repro.costs.compute import ComputeCostModel
from repro.data.sampler import Batch
from repro.model.memory import hidden_bytes_per_token
from repro.model.spec import TransformerSpec
from repro.utils.validation import check_in, check_positive

# Linear-module tasks run after the attention queues of the layer.
_LINEAR_PRIORITY = 3
_REMAP_PRIORITY = 3

# Backward passes move gradients of KV alongside KV and roughly double compute.
_BACKWARD_COMPUTE_FACTOR = 2.0
_BACKWARD_COMM_FACTOR = 2.0


@dataclass(frozen=True)
class StrategyContext:
    """Everything a strategy needs to plan a batch.

    Attributes
    ----------
    cluster:
        The hardware topology.
    spec:
        The transformer architecture being trained.
    token_budget:
        Tokens each *logical* rank processes per iteration (the paper's ``L``).
    tensor_parallel:
        GPUs per logical rank.
    """

    cluster: Cluster
    spec: TransformerSpec
    token_budget: int
    tensor_parallel: int = 1

    def __post_init__(self) -> None:
        check_positive("token_budget", self.token_budget)
        check_positive("tensor_parallel", self.tensor_parallel)
        if self.cluster.world_size % self.tensor_parallel != 0:
            raise ValueError(
                "world size must be divisible by the tensor parallel degree"
            )
        if self.tensor_parallel > self.cluster.gpus_per_node:
            raise ValueError("tensor parallel groups must fit within a node")

    @property
    def dp_ranks(self) -> tuple[int, ...]:
        """Physical ranks acting as the endpoints of the logical DP/CP ranks."""
        return tuple(
            range(0, self.cluster.world_size, self.tensor_parallel)
        )

    @property
    def dp_world_size(self) -> int:
        return self.cluster.world_size // self.tensor_parallel

    def compute_model(self) -> ComputeCostModel:
        return ComputeCostModel(
            peak_flops=self.cluster.peak_flops_per_gpu,
            device_type=self.cluster.device_type,
            tensor_parallel=self.tensor_parallel,
        )

    def comm_model(self) -> CommCostModel:
        return CommCostModel(self.cluster)


class Strategy(abc.ABC):
    """Base class for all scheduling strategies."""

    name: str = "strategy"

    def __init__(self, context: StrategyContext) -> None:
        self.context = context
        self.cluster = context.cluster
        self.spec = context.spec
        self.compute = context.compute_model()
        self.comm = context.comm_model()
        self._layout: tuple[Batch, Any] | None = None

    # -- interface --------------------------------------------------------------

    @abc.abstractmethod
    def plan_layer(self, batch: Batch, phase: str = "forward") -> ExecutionPlan:
        """Emit the task graph of one transformer layer for ``batch``."""

    def build_layout(self, batch: Batch) -> Any:
        """The phase-independent half of planning ``batch``.

        Strategies that split planning override this and read it through
        :meth:`layout`; a strategy that plans in one step needs neither.
        """
        raise NotImplementedError(f"{type(self).__name__} builds no layout")

    def layout(self, batch: Batch) -> Any:
        """:meth:`build_layout` of ``batch``, kept for the last batch asked.

        The memo is keyed by the batch itself: its equality covers the
        sequence ids that task names embed, so a miss is never wrong.
        """
        if self._layout is None or self._layout[0] != batch:
            self._layout = (batch, self.build_layout(batch))
        return self._layout[1]

    def describe(self) -> str:
        """One-line description used in experiment output."""
        return f"{self.name} on {self.cluster.name} ({self.context.dp_world_size} DP ranks)"

    # -- shared helpers -----------------------------------------------------------

    @staticmethod
    def phase_factors(phase: str) -> tuple[float, float]:
        """(compute factor, communication factor) for the given pass direction."""
        check_in("phase", phase, ("forward", "backward"))
        if phase == "forward":
            return 1.0, 1.0
        return _BACKWARD_COMPUTE_FACTOR, _BACKWARD_COMM_FACTOR

    def emit_linear(
        self,
        plan: ExecutionPlan,
        tokens_per_rank: dict[int, int],
        deps_per_rank: dict[int, list[int]],
        phase: str = "forward",
    ) -> dict[int, int]:
        """Emit the linear-module compute task of each rank.

        Returns a mapping from rank to the linear task id (ranks with zero
        tokens are skipped).
        """
        compute_factor, _ = self.phase_factors(phase)
        task_ids: dict[int, int] = {}
        for rank, tokens in tokens_per_rank.items():
            if tokens <= 0:
                continue
            duration = self.compute.linear_time(self.spec, tokens, num_layers=1)
            duration *= compute_factor
            task_ids[rank] = plan.add(
                name=f"linear:rank{rank}:{tokens}tok",
                kind=TaskKind.LINEAR,
                duration_s=duration,
                resources=(ExecutionPlan.compute_resource(rank),),
                deps=tuple(deps_per_rank.get(rank, [])),
                rank=rank,
                priority=_LINEAR_PRIORITY,
            )
        return task_ids

    def emit_remap(
        self,
        plan: ExecutionPlan,
        remap_plan: RemapPlan,
        deps_per_rank: dict[int, list[int]],
        phase: str = "forward",
        label: str = "remap",
    ) -> dict[int, list[int]]:
        """Emit the alltoallv transfers of a remapping plan.

        Returns, per destination rank, the ids of the transfers arriving there
        (downstream tasks on that rank must depend on them).
        """
        _, comm_factor = self.phase_factors(phase)
        bytes_per_token = hidden_bytes_per_token(self.spec) * comm_factor
        incoming: dict[int, list[int]] = {r: [] for r in remap_plan.ranks}
        ranks = remap_plan.ranks
        for i, j, tokens in remap_plan.nonzero_transfers():
            src, dst = ranks[i], ranks[j]
            if tokens <= 0 or src == dst:
                continue
            nbytes = tokens * bytes_per_token
            if self.cluster.same_node(src, dst):
                duration = self.comm.intra_node_time(nbytes)
                resources = (
                    ExecutionPlan.nvlink_resource(src, "tx"),
                    ExecutionPlan.nvlink_resource(dst, "rx"),
                )
            else:
                src_nic = self.cluster.nic_of(src).nic_id
                dst_nic = self.cluster.nic_of(dst).nic_id
                duration = self.comm.inter_node_time(nbytes, nics=1)
                resources = (
                    ExecutionPlan.nic_resource(src_nic, "tx"),
                    ExecutionPlan.nic_resource(dst_nic, "rx"),
                )
            tid = plan.add(
                name=f"{label}:{src}->{dst}:{int(tokens)}tok",
                kind=TaskKind.REMAP,
                duration_s=duration,
                resources=resources,
                deps=tuple(deps_per_rank.get(src, [])),
                rank=src,
                priority=_REMAP_PRIORITY,
            )
            incoming[dst].append(tid)
        return incoming
