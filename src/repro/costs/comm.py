"""Communication cost model: point-to-point transfers and collectives.

Builds on the per-link alpha-beta models of the cluster profile to time the
three communication primitives the planners use:

* ``intra_node_time`` — a transfer over the NVSwitch link (ring-attention and
  remapping hops between ranks of one node),
* ``inter_node_time`` — a transfer across nodes over one or more NICs
  (ring-attention hops, routed transfers and cross-node remapping),
* ``allgather_time`` — LLaMA CP's KV all-gather across a group.

The all-gather uses the standard ring-algorithm volume formula; when its group
spans several nodes the inter-node hop (possibly aggregated over the node's
NICs) dominates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.topology import Cluster
from repro.model.memory import kv_bytes_per_token
from repro.model.spec import TransformerSpec
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class CommCostModel:
    """Times communication primitives on a specific cluster."""

    cluster: Cluster

    # -- byte helpers ------------------------------------------------------------

    def kv_chunk_bytes(self, spec: TransformerSpec, num_tokens: int) -> float:
        """Bytes of the per-layer KV activations for ``num_tokens`` tokens."""
        check_non_negative("num_tokens", num_tokens)
        return kv_bytes_per_token(spec) * num_tokens

    # -- point to point ------------------------------------------------------------

    def intra_node_time(self, nbytes: float) -> float:
        """Time to move ``nbytes`` over the intra-node (NVSwitch) link."""
        check_non_negative("nbytes", nbytes)
        return self.cluster.profile.intra_node.transfer_time(nbytes)

    def inter_node_time(self, nbytes: float, nics: int = 1) -> float:
        """Time to move ``nbytes`` across nodes using ``nics`` NICs in parallel."""
        check_non_negative("nbytes", nbytes)
        check_positive("nics", nics)
        nics = min(nics, self.cluster.profile.nics_per_node)
        return self.cluster.profile.nic.scaled(nics).transfer_time(nbytes)

    # -- collectives --------------------------------------------------------------

    def _group_spans_nodes(self, ranks: tuple[int, ...]) -> bool:
        nodes = {self.cluster.gpu(r).node_id for r in ranks}
        return len(nodes) > 1

    def allgather_time(
        self,
        ranks: tuple[int, ...],
        bytes_per_rank: float,
        nics: int | None = None,
    ) -> float:
        """Ring all-gather of ``bytes_per_rank`` contributed by each rank.

        Each rank sends/receives ``(g-1)/g`` of the total volume.  For groups
        spanning nodes, the bottleneck hop is inter-node.  ``nics`` sets how
        many NICs the node-boundary traffic is striped over; the default
        (``None``) uses all of the node's NICs, which models a fully optimised
        hierarchical collective, while ``nics=2`` models a standard NCCL ring
        whose path crosses each node boundary twice.
        """
        check_non_negative("bytes_per_rank", bytes_per_rank)
        g = len(ranks)
        if g <= 1 or bytes_per_rank == 0:
            return 0.0
        total = bytes_per_rank * g
        volume = total * (g - 1) / g
        if self._group_spans_nodes(ranks):
            if nics is None:
                nics = self.cluster.profile.nics_per_node
            # Volume crossing the node boundary: each node must receive every
            # other node's share.
            nodes = {self.cluster.gpu(r).node_id for r in ranks}
            n = len(nodes)
            cross = total * (n - 1) / n
            return self.inter_node_time(cross, nics=nics) + self.intra_node_time(
                volume - cross
            )
        return self.intra_node_time(volume)
