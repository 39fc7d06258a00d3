"""Simulated cluster substrate.

The paper's testbed is 5 physical servers (1 head + 4 workers), each with
12 physical cores, 12 SATA disks, 96 GB RAM and a 10 Gbit NIC.  We model that
topology with :class:`~repro.cluster.node.Node` objects grouped into a
:class:`~repro.cluster.cluster.Cluster`, and account every byte that moves
through a disk or the network in a :class:`~repro.cluster.cost.CostLedger`.

Execution in this library is *really* parallel (worker threads, bounded
queues), but wall-clock on a laptop says nothing about a 10 GbE cluster, so
timings reported by benchmarks come from the cost model: observed byte counts
scaled to paper-scale row counts, divided by calibrated device rates, and
composed with the pipeline structure of each stage.
"""

from repro.cluster.cluster import Cluster, make_paper_cluster
from repro.cluster.cost import CostLedger, CostModel
from repro.cluster.node import Disk, Node

__all__ = [
    "Cluster",
    "CostLedger",
    "CostModel",
    "Disk",
    "Node",
    "make_paper_cluster",
]
