"""Communication cost model: point-to-point transfers and collectives.

Builds on the per-link alpha-beta models of the cluster profile to time the
communication primitives the strategies use:

* ``send_recv`` — one ring-attention round hop (KV activations of a chunk),
* ``allgather`` — LLaMA CP's KV all-gather across a group,
* ``all_to_all`` — the remapping layer's alltoallv and Ulysses-style exchanges,
* ``allreduce`` — gradient reduction (shared by all strategies, usually hidden
  behind backward compute and therefore excluded from iteration-time deltas).

Collective times use standard ring-algorithm volume formulas; when a group
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

    def p2p_time(self, src_rank: int, dst_rank: int, nbytes: float) -> float:
        """Time of a point-to-point transfer between two ranks.

        Intra-node transfers use the NVSwitch link; inter-node transfers use a
        single NIC (the static GPU-NIC affinity the routing layer relaxes).
        """
        check_non_negative("nbytes", nbytes)
        link = self.cluster.link_between(src_rank, dst_rank)
        if link is None:
            return 0.0
        return link.transfer_time(nbytes)

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
        use_all_nics: bool = True,
        nics: int | None = None,
    ) -> float:
        """Ring all-gather of ``bytes_per_rank`` contributed by each rank.

        Each rank sends/receives ``(g-1)/g`` of the total volume.  For groups
        spanning nodes, the bottleneck hop is inter-node.  ``nics`` sets how
        many NICs the node-boundary traffic is striped over; the default
        (``use_all_nics=True``) uses all of the node's NICs, which models a
        fully optimised hierarchical collective, while ``nics=2`` models a
        standard NCCL ring whose path crosses each node boundary twice.
        """
        check_non_negative("bytes_per_rank", bytes_per_rank)
        g = len(ranks)
        if g <= 1 or bytes_per_rank == 0:
            return 0.0
        total = bytes_per_rank * g
        volume = total * (g - 1) / g
        if self._group_spans_nodes(ranks):
            if nics is None:
                nics = self.cluster.profile.nics_per_node if use_all_nics else 1
            # Volume crossing the node boundary: each node must receive every
            # other node's share.
            nodes = {self.cluster.gpu(r).node_id for r in ranks}
            n = len(nodes)
            cross = total * (n - 1) / n
            return self.inter_node_time(cross, nics=nics) + self.intra_node_time(
                volume - cross
            )
        return self.intra_node_time(volume)

    def all_to_all_time(
        self,
        ranks: tuple[int, ...],
        send_matrix: list[list[float]] | None = None,
        uniform_bytes: float | None = None,
        use_all_nics: bool = True,
    ) -> float:
        """Time of an all-to-all(-v) exchange within a rank group.

        Either ``send_matrix[i][j]`` gives the bytes rank ``ranks[i]`` sends to
        rank ``ranks[j]``, or ``uniform_bytes`` gives the per-pair volume.  The
        time is the maximum over ranks of the larger of its send and receive
        totals, split between intra-node and inter-node portions.
        """
        g = len(ranks)
        if g <= 1:
            return 0.0
        if send_matrix is None:
            if uniform_bytes is None:
                raise ValueError("provide either send_matrix or uniform_bytes")
            check_non_negative("uniform_bytes", uniform_bytes)
            send_matrix = [
                [0.0 if i == j else uniform_bytes for j in range(g)] for i in range(g)
            ]
        if len(send_matrix) != g or any(len(row) != g for row in send_matrix):
            raise ValueError("send_matrix must be square with one row per rank")

        worst = 0.0
        nics = self.cluster.profile.nics_per_node if use_all_nics else 1
        for i in range(g):
            send_intra = send_inter = 0.0
            recv_intra = recv_inter = 0.0
            for j in range(g):
                if i == j:
                    continue
                same = self.cluster.same_node(ranks[i], ranks[j])
                if same:
                    send_intra += send_matrix[i][j]
                    recv_intra += send_matrix[j][i]
                else:
                    send_inter += send_matrix[i][j]
                    recv_inter += send_matrix[j][i]
            t_send = self.intra_node_time(send_intra) + self.inter_node_time(
                send_inter, nics=nics
            )
            t_recv = self.intra_node_time(recv_intra) + self.inter_node_time(
                recv_inter, nics=nics
            )
            worst = max(worst, t_send, t_recv)
        return worst
