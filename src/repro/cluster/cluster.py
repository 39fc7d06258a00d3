"""Cluster topology: a head node plus worker nodes, with a shared ledger."""

from repro.cluster.cost import CostLedger
from repro.cluster.node import Disk, Node


class Cluster:
    """A set of nodes sharing one network and one :class:`CostLedger`.

    The first node is conventionally the head node (NameNode, coordinator,
    job master); the rest host DFS DataNodes, SQL workers and ML workers —
    mirroring the paper's testbed layout.
    """

    def __init__(self, nodes: list[Node], network_bps: float = 10e9 / 8):
        if not nodes:
            raise ValueError("a cluster needs at least one node")
        ids = [n.node_id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")
        ips = [n.ip for n in nodes]
        if len(set(ips)) != len(ips):
            raise ValueError("duplicate node ips")
        self.nodes = list(nodes)
        self.network_bps = network_bps
        self.ledger = CostLedger()

    @property
    def head(self) -> Node:
        """The head node (first in the list)."""
        return self.nodes[0]

    @property
    def workers(self) -> list[Node]:
        """All nodes except the head."""
        return self.nodes[1:] if len(self.nodes) > 1 else self.nodes

    def is_local(self, ip_a: str, ip_b: str) -> bool:
        """True when both IPs name the same node (no network hop needed)."""
        return ip_a == ip_b

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"Cluster({len(self.nodes)} nodes, head={self.head.hostname})"


def make_paper_cluster(num_workers: int = 4) -> Cluster:
    """Build the paper's testbed: 1 head + ``num_workers`` worker servers.

    Each server: 12 cores, 12 SATA disks, 96 GB RAM, 10 GbE.
    """
    nodes = [
        Node(
            node_id=i,
            hostname=("head" if i == 0 else f"worker{i}"),
            ip=f"10.0.0.{i + 1}",
            cores=12,
            ram_bytes=96 * 10**9,
            disks=tuple(Disk() for _ in range(12)),
        )
        for i in range(num_workers + 1)
    ]
    return Cluster(nodes, network_bps=10e9 / 8)
