"""Communication Routing Layer (§3.3).

Ring attention sends KV activations from one rank to the next.  When that hop
crosses nodes, the static GPU-NIC affinity means the whole transfer funnels
through a single NIC while the node's other NICs sit idle — and ring traffic is
unidirectional, so even the active NIC only uses half its duplex capacity.

The routing layer replaces the direct transfer of ``n`` bytes with three steps:

1. **Workload dispatch (intra-node):** the source rank scatters its payload to
   ``x1`` send-proxy ranks over NVSwitch (each proxy receives ``n / x1``).
2. **Inter-node transfer (multi-NIC):** each send proxy forwards its share to a
   matching receive proxy on the destination node through its own NIC.
3. **Workload combine (intra-node):** the ``x2`` receive proxies forward their
   shares to the destination rank over NVSwitch.

The per-round cost drops from ``b_inter * n`` to Eq. (1):

``b_intra * n (x1-1)/x1  +  b_inter * max(n/x1, n/x2)  +  b_intra * n (x2-1)/x2``

:class:`RoutingLayer` selects proxy ranks (balancing them over the node's NICs)
and both evaluates the analytic Eq. (1) cost and emits the per-step transfer
list a strategy turns into simulator tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.topology import Cluster
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class ProxyTransfer:
    """One point-to-point transfer inside a routed send."""

    src_rank: int
    dst_rank: int
    nbytes: float
    step: str
    """``"dispatch"``, ``"transfer"`` or ``"combine"``."""

    def __post_init__(self) -> None:
        check_non_negative("nbytes", self.nbytes)
        if self.step not in ("dispatch", "transfer", "combine"):
            raise ValueError(f"unknown routing step {self.step!r}")


@dataclass(frozen=True)
class RoutingDecision:
    """The routed decomposition of one inter-node send of ``total_bytes``.

    Attributes
    ----------
    src_rank, dst_rank:
        Logical endpoints of the original ring hop.
    send_proxies, recv_proxies:
        Proxy ranks used on the source and destination nodes (``x1``/``x2``).
    transfers:
        All point-to-point transfers, grouped by step.
    total_bytes:
        Payload size of the original hop.
    """

    src_rank: int
    dst_rank: int
    send_proxies: tuple[int, ...]
    recv_proxies: tuple[int, ...]
    transfers: tuple[ProxyTransfer, ...]
    total_bytes: float

    @property
    def x1(self) -> int:
        return len(self.send_proxies)

    @property
    def x2(self) -> int:
        return len(self.recv_proxies)

    def transfers_for_step(self, step: str) -> list[ProxyTransfer]:
        return [t for t in self.transfers if t.step == step]


@dataclass
class RoutingLayer:
    """Selects proxy ranks and decomposes inter-node ring hops.

    Parameters
    ----------
    cluster:
        The training cluster (provides node membership, NIC affinity and the
        bandwidth hierarchy).
    enabled:
        When ``False``, :meth:`route` returns the direct single-hop transfer —
        used by the ablation study (Fig. 11).
    """

    cluster: Cluster
    enabled: bool = True
    # route() memo: decisions are frozen, so equal hops share one.
    _decisions: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- proxy selection ----------------------------------------------------------

    def select_proxies(
        self,
        node_id: int,
        preferred_ranks: tuple[int, ...] = (),
        count: int | None = None,
    ) -> tuple[int, ...]:
        """Choose proxy ranks on ``node_id``, spreading them across distinct NICs.

        GPUs already participating in the ring (``preferred_ranks``) are used
        first; remaining proxies are taken from the node's other GPUs, one per
        still-unused NIC before doubling up, so the transfer step engages as
        many NICs as possible.
        """
        node_ranks = list(self.cluster.ranks_on_node(node_id))
        if count is None:
            count = len(node_ranks)
        check_positive("count", count)
        count = min(count, len(node_ranks))

        chosen: list[int] = []
        used_nics: set[int] = set()

        def try_add(rank: int) -> None:
            if len(chosen) >= count or rank in chosen:
                return
            chosen.append(rank)
            used_nics.add(self.cluster.nic_of(rank).nic_id)

        preferred = [r for r in preferred_ranks if r in node_ranks]
        # First pass: preferred ranks on not-yet-used NICs, then any rank on a
        # fresh NIC, then fill up with whatever is left.
        for rank in preferred:
            if self.cluster.nic_of(rank).nic_id not in used_nics:
                try_add(rank)
        for rank in node_ranks:
            if len(chosen) >= count:
                break
            if self.cluster.nic_of(rank).nic_id not in used_nics:
                try_add(rank)
        for rank in preferred:
            try_add(rank)
        for rank in node_ranks:
            try_add(rank)
        return tuple(chosen[:count])

    # -- routing a hop --------------------------------------------------------------

    def route(
        self,
        src_rank: int,
        dst_rank: int,
        nbytes: float,
        ring_ranks: tuple[int, ...] = (),
    ) -> RoutingDecision:
        """Decompose the inter-node hop ``src_rank -> dst_rank`` of ``nbytes``.

        ``ring_ranks`` are the ranks of the ring the hop belongs to; ring
        members on the source/destination nodes are preferred as proxies (they
        already hold related data), and the proxy counts are matched so that
        senders and receivers pair one-to-one (§3.3).  Decisions are memoised
        per ``(src_rank, dst_rank, nbytes, ring_ranks)``; the ring's ranks are
        part of the key because they pick the proxies.
        """
        ring_ranks = tuple(ring_ranks)
        key = (src_rank, dst_rank, nbytes, ring_ranks)
        decision = self._decisions.get(key)
        if decision is None:
            decision = self._decide(src_rank, dst_rank, nbytes, ring_ranks)
            self._decisions[key] = decision
        return decision

    def _decide(
        self,
        src_rank: int,
        dst_rank: int,
        nbytes: float,
        ring_ranks: tuple[int, ...],
    ) -> RoutingDecision:
        check_non_negative("nbytes", nbytes)
        if self.cluster.same_node(src_rank, dst_rank):
            raise ValueError("routing only applies to inter-node hops")
        if not self.enabled:
            transfer = ProxyTransfer(
                src_rank=src_rank, dst_rank=dst_rank, nbytes=nbytes, step="transfer"
            )
            return RoutingDecision(
                src_rank=src_rank,
                dst_rank=dst_rank,
                send_proxies=(src_rank,),
                recv_proxies=(dst_rank,),
                transfers=(transfer,),
                total_bytes=nbytes,
            )

        src_node = self.cluster.gpu(src_rank).node_id
        dst_node = self.cluster.gpu(dst_rank).node_id
        ring_on_src = tuple(
            r for r in ring_ranks if self.cluster.gpu(r).node_id == src_node
        )
        ring_on_dst = tuple(
            r for r in ring_ranks if self.cluster.gpu(r).node_id == dst_node
        )

        send_proxies = self.select_proxies(src_node, preferred_ranks=ring_on_src or (src_rank,))
        recv_proxies = self.select_proxies(dst_node, preferred_ranks=ring_on_dst or (dst_rank,))
        # One-to-one pairing of senders and receivers.
        pairs = min(len(send_proxies), len(recv_proxies))
        send_proxies = send_proxies[:pairs]
        recv_proxies = recv_proxies[:pairs]

        transfers: list[ProxyTransfer] = []
        share = nbytes / pairs if pairs else nbytes
        for send_proxy, recv_proxy in zip(send_proxies, recv_proxies):
            if send_proxy != src_rank and share > 0:
                transfers.append(
                    ProxyTransfer(
                        src_rank=src_rank,
                        dst_rank=send_proxy,
                        nbytes=share,
                        step="dispatch",
                    )
                )
            transfers.append(
                ProxyTransfer(
                    src_rank=send_proxy,
                    dst_rank=recv_proxy,
                    nbytes=share,
                    step="transfer",
                )
            )
            if recv_proxy != dst_rank and share > 0:
                transfers.append(
                    ProxyTransfer(
                        src_rank=recv_proxy,
                        dst_rank=dst_rank,
                        nbytes=share,
                        step="combine",
                    )
                )
        return RoutingDecision(
            src_rank=src_rank,
            dst_rank=dst_rank,
            send_proxies=send_proxies,
            recv_proxies=recv_proxies,
            transfers=tuple(transfers),
            total_bytes=nbytes,
        )

    # -- analytic cost (Eq. 1) ---------------------------------------------------------

    def routed_cost(self, nbytes: float, x1: int, x2: int) -> float:
        """Eq. (1): the analytic cost of the three-step routed transfer."""
        check_non_negative("nbytes", nbytes)
        check_positive("x1", x1)
        check_positive("x2", x2)
        profile = self.cluster.profile
        dispatch = profile.b_intra * nbytes * (x1 - 1) / x1
        inter = profile.b_inter * max(nbytes / x1, nbytes / x2)
        combine = profile.b_intra * nbytes * (x2 - 1) / x2
        return dispatch + inter + combine

    def direct_cost(self, nbytes: float) -> float:
        """Cost of the unrouted single-NIC transfer (``b_inter * n``)."""
        check_non_negative("nbytes", nbytes)
        return self.cluster.profile.b_inter * nbytes

    def speedup(self, nbytes: float, x1: int, x2: int) -> float:
        """Ratio of direct to routed cost for a hop of ``nbytes``."""
        routed = self.routed_cost(nbytes, x1, x2)
        if routed == 0:
            return 1.0
        return self.direct_cost(nbytes) / routed
