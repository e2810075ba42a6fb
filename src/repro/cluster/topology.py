"""Cluster topology: GPUs, NICs, nodes, and global rank mapping.

The topology object answers the structural questions Zeppelin's layers ask:

* which node does a global rank live on (zone classification, Alg. 1/2),
* which NIC serves a given GPU (routing layer, §3.3),
* which GPUs share a NIC (the Cluster A 2-GPUs-per-NIC affinity that motivates
  proxy ranks),
* what link connects two ranks (intra-node NVSwitch vs inter-node NIC).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.cluster.bandwidth import BandwidthProfile, LinkModel
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class GPU:
    """A single accelerator.

    Attributes
    ----------
    global_rank:
        Rank of this GPU across the whole cluster (0-based, row-major by node).
    node_id:
        Index of the node hosting this GPU.
    local_rank:
        Index of this GPU within its node.
    nic_id:
        Global index of the NIC this GPU is affined to.
    device_type:
        Device model name, e.g. ``"A800"``; used by the compute cost model.
    peak_flops:
        Peak dense bf16 throughput in FLOP/s.
    memory_bytes:
        HBM capacity in bytes.
    """

    global_rank: int
    node_id: int
    local_rank: int
    nic_id: int
    device_type: str
    peak_flops: float
    memory_bytes: float

    def __post_init__(self) -> None:
        check_non_negative("global_rank", self.global_rank)
        check_non_negative("node_id", self.node_id)
        check_non_negative("local_rank", self.local_rank)
        check_non_negative("nic_id", self.nic_id)
        check_positive("peak_flops", self.peak_flops)
        check_positive("memory_bytes", self.memory_bytes)


@dataclass(frozen=True)
class NIC:
    """A network interface card attached to a node.

    Attributes
    ----------
    nic_id:
        Global NIC index across the cluster.
    node_id:
        Node hosting the NIC.
    local_index:
        Index of the NIC within its node.
    link:
        Alpha-beta model of the NIC's inter-node bandwidth.
    gpu_local_ranks:
        Local ranks of the GPUs affined to this NIC.
    """

    nic_id: int
    node_id: int
    local_index: int
    link: LinkModel
    gpu_local_ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        check_non_negative("nic_id", self.nic_id)
        check_non_negative("node_id", self.node_id)
        check_non_negative("local_index", self.local_index)
        if not self.gpu_local_ranks:
            raise ValueError("a NIC must serve at least one GPU")


@dataclass(frozen=True)
class Node:
    """One server: a set of GPUs connected by NVSwitch plus its NICs."""

    node_id: int
    gpus: tuple[GPU, ...]
    nics: tuple[NIC, ...]
    intra_node_link: LinkModel

    def __post_init__(self) -> None:
        check_non_negative("node_id", self.node_id)
        if not self.gpus:
            raise ValueError("a node must contain at least one GPU")
        if not self.nics:
            raise ValueError("a node must contain at least one NIC")

    @property
    def num_gpus(self) -> int:
        return len(self.gpus)

    @property
    def num_nics(self) -> int:
        return len(self.nics)

    def nic_for_local_rank(self, local_rank: int) -> NIC:
        """Return the NIC affined to the GPU with the given local rank."""
        for nic in self.nics:
            if local_rank in nic.gpu_local_ranks:
                return nic
        raise KeyError(
            f"no NIC on node {self.node_id} is affined to local rank {local_rank}"
        )


@dataclass(frozen=True)
class Cluster:
    """The full training cluster.

    A cluster is a homogeneous collection of nodes described by a
    :class:`~repro.cluster.bandwidth.BandwidthProfile`.  Ranks are numbered
    row-major by node: global rank = ``node_id * gpus_per_node + local_rank``.
    """

    name: str
    nodes: tuple[Node, ...]
    profile: BandwidthProfile
    description: str = ""
    _rank_index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a cluster must contain at least one node")
        sizes = {node.num_gpus for node in self.nodes}
        if len(sizes) != 1:
            raise ValueError("all nodes must have the same number of GPUs")
        index: dict[int, GPU] = {}
        for node in self.nodes:
            for gpu in node.gpus:
                if gpu.global_rank in index:
                    raise ValueError(f"duplicate global rank {gpu.global_rank}")
                index[gpu.global_rank] = gpu
        expected = set(range(len(index)))
        if set(index) != expected:
            raise ValueError("global ranks must be contiguous starting at 0")
        object.__setattr__(self, "_rank_index", index)

    # -- sizes -------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def gpus_per_node(self) -> int:
        return self.nodes[0].num_gpus

    @property
    def world_size(self) -> int:
        return self.num_nodes * self.gpus_per_node

    # -- lookups -----------------------------------------------------------

    def gpu(self, global_rank: int) -> GPU:
        """Return the GPU with the given global rank."""
        try:
            return self._rank_index[global_rank]
        except KeyError:
            raise KeyError(
                f"rank {global_rank} out of range for world size {self.world_size}"
            ) from None

    def node_of(self, global_rank: int) -> Node:
        """Return the node hosting the given global rank."""
        return self.nodes[self.gpu(global_rank).node_id]

    def nic_of(self, global_rank: int) -> NIC:
        """Return the NIC affined to the given global rank."""
        gpu = self.gpu(global_rank)
        return self.node_of(global_rank).nic_for_local_rank(gpu.local_rank)

    def ranks_on_node(self, node_id: int) -> tuple[int, ...]:
        """Global ranks hosted on ``node_id``, in local-rank order."""
        node = self.nodes[node_id]
        return tuple(
            gpu.global_rank for gpu in sorted(node.gpus, key=lambda g: g.local_rank)
        )

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        """True if two global ranks live on the same node."""
        return self.gpu(rank_a).node_id == self.gpu(rank_b).node_id

    def iter_ranks(self) -> Iterator[int]:
        """Iterate over global ranks in order."""
        return iter(range(self.world_size))

    # -- derived quantities --------------------------------------------------

    @property
    def peak_flops_per_gpu(self) -> float:
        """Peak FLOP/s of a single GPU (homogeneous clusters only)."""
        return self.nodes[0].gpus[0].peak_flops

    @property
    def gpu_memory_bytes(self) -> float:
        """HBM capacity of a single GPU in bytes."""
        return self.nodes[0].gpus[0].memory_bytes

    @property
    def device_type(self) -> str:
        """Device model name of the cluster's GPUs."""
        return self.nodes[0].gpus[0].device_type

    def describe(self) -> str:
        """One-line human readable summary of the cluster."""
        prof = self.profile
        return (
            f"{self.name}: {self.num_nodes} nodes x {self.gpus_per_node} "
            f"{self.device_type} GPUs, {prof.nics_per_node} NICs/node "
            f"({prof.nic.bandwidth_bytes_per_s * 8 / 1e9:.0f} Gb/s each), "
            f"intra-node {prof.intra_node.bandwidth_bytes_per_s / 1e9:.0f} GB/s"
        )
